package ranker

import (
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
)

var (
	httpdCtx = activity.Context{Host: "web1", Program: "httpd", PID: 10, TID: 10}
	javaCtx  = activity.Context{Host: "app1", Program: "java", PID: 20, TID: 21}
	mysqlCtx = activity.Context{Host: "db1", Program: "mysqld", PID: 30, TID: 31}

	clientCh = activity.Channel{Src: activity.EP("10.0.0.9", 4001), Dst: activity.EP("10.0.0.1", 80)}
	webApp   = activity.Channel{Src: activity.EP("10.0.0.1", 34001), Dst: activity.EP("10.0.0.2", 8009)}
	appDB    = activity.Channel{Src: activity.EP("10.0.0.2", 45001), Dst: activity.EP("10.0.0.3", 3306)}
)

var ipToHost = map[string]string{
	"10.0.0.1": "web1",
	"10.0.0.2": "app1",
	"10.0.0.3": "db1",
}

func act(typ activity.Type, ts time.Duration, ctx activity.Context, ch activity.Channel, size int64, req int64) *activity.Activity {
	return &activity.Activity{Type: typ, Timestamp: ts, Ctx: ctx, Chan: ch, Size: size, ReqID: req, MsgID: -1}
}

// request builds the merged (unordered across hosts) trace of one request
// whose per-host local timestamps are offset by the given skews.
func request(base time.Duration, req int64, skewWeb, skewApp, skewDB time.Duration) []*activity.Activity {
	ms := func(n int) time.Duration { return base + time.Duration(n)*time.Millisecond }
	return []*activity.Activity{
		act(activity.Begin, ms(0)+skewWeb, httpdCtx, clientCh, 200, req),
		act(activity.Send, ms(2)+skewWeb, httpdCtx, webApp, 300, req),
		act(activity.Receive, ms(5)+skewApp, javaCtx, webApp, 300, req),
		act(activity.Send, ms(8)+skewApp, javaCtx, appDB, 100, req),
		act(activity.Receive, ms(10)+skewDB, mysqlCtx, appDB, 100, req),
		act(activity.Send, ms(15)+skewDB, mysqlCtx, appDB.Reverse(), 900, req),
		act(activity.Receive, ms(17)+skewApp, javaCtx, appDB.Reverse(), 900, req),
		act(activity.Send, ms(20)+skewApp, javaCtx, webApp.Reverse(), 700, req),
		act(activity.Receive, ms(22)+skewWeb, httpdCtx, webApp.Reverse(), 700, req),
		act(activity.End, ms(24)+skewWeb, httpdCtx, clientCh.Reverse(), 700, req),
	}
}

// NewFromTrace builds a ranker from a merged trace, splitting per host
// and ranking the hosts in name order.
func NewFromTrace(cfg Config, eng *engine.Engine, trace []*activity.Activity) *Ranker {
	byHost := SplitByHost(trace)
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	sources := make([]Source, 0, len(hosts))
	for _, h := range hosts {
		sources = append(sources, NewSliceSource(h, byHost[h]))
	}
	return New(cfg, eng, sources)
}

// correlate runs the ranker+engine loop and returns both.
func correlate(t *testing.T, cfg Config, trace []*activity.Activity) (*Ranker, *engine.Engine) {
	t.Helper()
	eng := engine.New()
	r := NewFromTrace(cfg, eng, trace)
	for {
		a := r.Rank()
		if a == nil {
			break
		}
		eng.Handle(a)
	}
	return r, eng
}

func TestRankOrderSimpleRequest(t *testing.T) {
	eng := engine.New()
	r := NewFromTrace(Config{Window: time.Second, IPToHost: ipToHost}, eng, request(0, 1, 0, 0, 0))
	var types []activity.Type
	for {
		a := r.Rank()
		if a == nil {
			break
		}
		types = append(types, a.Type)
		eng.Handle(a)
	}
	want := []activity.Type{
		activity.Begin, activity.Send, activity.Receive, activity.Send, activity.Receive,
		activity.Send, activity.Receive, activity.Send, activity.Receive, activity.End,
	}
	if len(types) != len(want) {
		t.Fatalf("delivered %d activities, want %d", len(types), len(want))
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v (full: %v)", i, types[i], want[i], types)
		}
	}
	if len(eng.Outputs()) != 1 {
		t.Fatalf("CAGs = %d, want 1", len(eng.Outputs()))
	}
}

func TestSkewLargerThanWindow(t *testing.T) {
	// §5.2: accuracy must hold when the window (1ms) is far smaller than
	// the clock skew (500ms).
	trace := request(0, 1, 0, 500*time.Millisecond, -250*time.Millisecond)
	r, eng := correlate(t, Config{Window: time.Millisecond, IPToHost: ipToHost}, trace)
	outs := eng.Outputs()
	if len(outs) != 1 {
		t.Fatalf("CAGs = %d, want 1", len(outs))
	}
	if err := outs[0].Validate(); err != nil {
		t.Fatal(err)
	}
	if outs[0].Len() != 10 {
		t.Fatalf("CAG vertices = %d, want 10", outs[0].Len())
	}
	if r.Stats().ForcedPops != 0 {
		t.Fatalf("forced pops under skew: %+v", r.Stats())
	}
	st := eng.Stats()
	if st.DiscardedSends+st.DiscardedReceives+st.DiscardedEnds != 0 {
		t.Fatalf("engine discards under skew: %+v", st)
	}
}

func TestManyConcurrentRequestsInterleaved(t *testing.T) {
	// 50 requests, overlapping in time, distinct worker entities.
	var trace []*activity.Activity
	for i := 0; i < 50; i++ {
		req := int64(i)
		h := activity.Context{Host: "web1", Program: "httpd", PID: int32(100 + i), TID: int32(100 + i)}
		j := activity.Context{Host: "app1", Program: "java", PID: 20, TID: int32(200 + i)}
		m := activity.Context{Host: "db1", Program: "mysqld", PID: 30, TID: int32(300 + i)}
		cch := activity.Channel{Src: activity.EP("10.0.0.9", 5000+i), Dst: activity.EP("10.0.0.1", 80)}
		wch := activity.Channel{Src: activity.EP("10.0.0.1", 30000+i), Dst: activity.EP("10.0.0.2", 8009)}
		dch := activity.Channel{Src: activity.EP("10.0.0.2", 40000+i), Dst: activity.EP("10.0.0.3", 3306)}
		base := time.Duration(i) * 3 * time.Millisecond // heavy overlap
		ms := func(n int) time.Duration { return base + time.Duration(n)*time.Millisecond }
		trace = append(trace,
			act(activity.Begin, ms(0), h, cch, 200, req),
			act(activity.Send, ms(2), h, wch, 300, req),
			act(activity.Receive, ms(5), j, wch, 300, req),
			act(activity.Send, ms(8), j, dch, 100, req),
			act(activity.Receive, ms(10), m, dch, 100, req),
			act(activity.Send, ms(15), m, dch.Reverse(), 900, req),
			act(activity.Receive, ms(17), j, dch.Reverse(), 900, req),
			act(activity.Send, ms(20), j, wch.Reverse(), 700, req),
			act(activity.Receive, ms(22), h, wch.Reverse(), 700, req),
			act(activity.End, ms(24), h, cch.Reverse(), 700, req),
		)
	}
	_, eng := correlate(t, Config{Window: 10 * time.Millisecond, IPToHost: ipToHost}, trace)
	outs := eng.Outputs()
	if len(outs) != 50 {
		t.Fatalf("CAGs = %d, want 50", len(outs))
	}
	for _, g := range outs {
		if ids := g.RequestIDs(); len(ids) != 1 {
			t.Fatalf("CAG mixes requests: %v", ids)
		}
		if g.Len() != 10 {
			t.Fatalf("CAG vertices = %d, want 10", g.Len())
		}
	}
}

func TestAttributeFilterDropsByProgram(t *testing.T) {
	sshCtx := activity.Context{Host: "web1", Program: "sshd", PID: 999, TID: 999}
	sshCh := activity.Channel{Src: activity.EP("10.0.0.77", 2222), Dst: activity.EP("10.0.0.1", 22)}
	trace := request(0, 1, 0, 0, 0)
	trace = append(trace,
		act(activity.Receive, 3*time.Millisecond, sshCtx, sshCh, 64, -1),
		act(activity.Send, 4*time.Millisecond, sshCtx, sshCh.Reverse(), 64, -1),
	)
	filter := AttributeFilter{DenyPrograms: map[string]bool{"sshd": true, "rlogind": true}}.Func()
	r, eng := correlate(t, Config{Window: time.Second, IPToHost: ipToHost, Filter: filter}, trace)
	if r.Stats().FilterDropped != 2 {
		t.Fatalf("FilterDropped = %d, want 2", r.Stats().FilterDropped)
	}
	if len(eng.Outputs()) != 1 {
		t.Fatalf("CAGs = %d, want 1", len(eng.Outputs()))
	}
}

func TestIsNoiseDropsUntracedReceive(t *testing.T) {
	// MySQL-client style noise: activities at the DB node, same program and
	// port as legitimate traffic, sender untraced => only is_noise can
	// remove the RECEIVEs.
	noiseCtx := activity.Context{Host: "db1", Program: "mysqld", PID: 30, TID: 99}
	noiseCh := activity.Channel{Src: activity.EP("10.0.0.200", 6000), Dst: activity.EP("10.0.0.3", 3306)}
	trace := request(0, 1, 0, 0, 0)
	trace = append(trace,
		act(activity.Receive, 9*time.Millisecond, noiseCtx, noiseCh, 77, -1),
		act(activity.Send, 11*time.Millisecond, noiseCtx, noiseCh.Reverse(), 128, -1),
	)
	r, eng := correlate(t, Config{Window: 2 * time.Millisecond, IPToHost: ipToHost}, trace)
	if r.Stats().NoiseDropped != 1 {
		t.Fatalf("NoiseDropped = %d, want 1 (stats %+v)", r.Stats().NoiseDropped, r.Stats())
	}
	outs := eng.Outputs()
	if len(outs) != 1 {
		t.Fatalf("CAGs = %d, want 1", len(outs))
	}
	if ids := outs[0].RequestIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("CAG polluted by noise: %v", ids)
	}
	// The noise SEND is delivered but discarded by the engine (no context).
	if eng.Stats().DiscardedSends != 1 {
		t.Fatalf("DiscardedSends = %d, want 1", eng.Stats().DiscardedSends)
	}
}

func TestConcurrencyDisturbanceSwap(t *testing.T) {
	// Fig. 6: two SMP nodes, each queue head is a RECEIVE whose matching
	// SEND sits behind it in the other node's queue.
	p1 := activity.Context{Host: "web1", Program: "httpd", PID: 1, TID: 1}
	p2 := activity.Context{Host: "app1", Program: "java", PID: 2, TID: 2}
	p3 := activity.Context{Host: "web1", Program: "httpd", PID: 3, TID: 3}
	p4 := activity.Context{Host: "app1", Program: "java", PID: 4, TID: 4}
	ch12 := activity.Channel{Src: activity.EP("10.0.0.1", 1000), Dst: activity.EP("10.0.0.2", 2000)}
	ch21 := activity.Channel{Src: activity.EP("10.0.0.2", 3000), Dst: activity.EP("10.0.0.1", 4000)}
	cl1 := activity.Channel{Src: activity.EP("10.0.0.9", 71), Dst: activity.EP("10.0.0.1", 80)}
	cl2 := activity.Channel{Src: activity.EP("10.0.0.9", 72), Dst: activity.EP("10.0.0.2", 80)}

	trace := []*activity.Activity{
		// Roots so the SENDs have context parents.
		act(activity.Begin, 0, p1, cl1, 10, 1),
		act(activity.Begin, 0, p4, cl2, 10, 2),
		// Node web1 logs R(2->1 to p3... as p3 ctx) BEFORE S(1->2) (SMP reordering).
		act(activity.Receive, 1*time.Millisecond, p3, ch21, 50, 2),
		act(activity.Send, 1100*time.Microsecond, p1, ch12, 60, 1),
		// Node app1 logs R(1->2) before S(2->1).
		act(activity.Receive, 1*time.Millisecond, p2, ch12, 60, 1),
		act(activity.Send, 1100*time.Microsecond, p4, ch21, 50, 2),
	}
	r, eng := correlate(t, Config{Window: 10 * time.Millisecond, IPToHost: ipToHost}, trace)
	if r.Stats().Swaps == 0 {
		t.Fatalf("expected swaps, stats %+v", r.Stats())
	}
	if r.Stats().ForcedPops != 0 {
		t.Fatalf("forced pops: %+v", r.Stats())
	}
	st := eng.Stats()
	if st.DiscardedReceives != 0 {
		t.Fatalf("discarded receives: %+v", st)
	}
	if st.Receives != 2 {
		t.Fatalf("Receives = %d, want 2", st.Receives)
	}
}

func TestSwapPreservesContextOrder(t *testing.T) {
	// A queue [RECV(ctxA), SEND(ctxA)] must NOT be reordered: the SEND
	// causally follows the RECEIVE in the same execution entity.
	eng := engine.New()
	recv := act(activity.Receive, 1*time.Millisecond, javaCtx, webApp, 10, 1)
	send := act(activity.Send, 2*time.Millisecond, javaCtx, appDB, 10, 1)
	r := &Ranker{eng: eng}
	r.Reset(eng, []Source{NewSliceSource("app1", []*activity.Activity{recv, send})})
	q := r.queues[0]
	r.fetchOne(q)
	r.fetchOne(q)
	if r.swapBlockedHead() {
		t.Fatal("swap must not reorder same-context activities")
	}
}

func TestPaperExactNoiseMode(t *testing.T) {
	// In paper-exact mode a blocked legit RECEIVE whose SEND is outside the
	// buffer is vulnerable; with the default liveness-aware mode it is not.
	// Construct: app1's RECEIVE at local ts 0, web1's SEND at local ts
	// 500ms (skewed clock), window 1ms.
	trace := []*activity.Activity{
		act(activity.Begin, 500*time.Millisecond, httpdCtx, clientCh, 10, 1),
		act(activity.Send, 501*time.Millisecond, httpdCtx, webApp, 60, 1),
		act(activity.Receive, 1*time.Millisecond, javaCtx, webApp, 60, 1),
	}
	r, eng := correlate(t, Config{Window: time.Millisecond, IPToHost: ipToHost}, trace)
	if r.Stats().NoiseDropped != 0 {
		t.Fatalf("liveness-aware mode dropped a legit RECEIVE: %+v", r.Stats())
	}
	if eng.Stats().Receives != 1 {
		t.Fatalf("Receives = %d, want 1", eng.Stats().Receives)
	}
}

func TestSplitByHostSorts(t *testing.T) {
	a1 := act(activity.Send, 5*time.Millisecond, httpdCtx, webApp, 1, 1)
	a2 := act(activity.Begin, 1*time.Millisecond, httpdCtx, clientCh, 1, 1)
	a3 := act(activity.Receive, 3*time.Millisecond, javaCtx, webApp, 1, 1)
	m := SplitByHost([]*activity.Activity{a1, a2, a3})
	if len(m) != 2 {
		t.Fatalf("hosts = %d", len(m))
	}
	web := m["web1"]
	if len(web) != 2 || web[0] != a2 || web[1] != a1 {
		t.Fatal("web1 log not sorted by timestamp")
	}
}

// Exhausted reports whether all sources and buffers are drained.
func (r *Ranker) Exhausted() bool {
	for _, q := range r.queues {
		if q.len() != 0 || !q.exhausted() {
			return false
		}
	}
	return true
}

// Buffered returns the number of activities currently resident in the
// queues (the ranker buffer of Fig. 11's memory accounting).
func (r *Ranker) Buffered() int { return r.buffered }

func TestExhaustedAndBuffered(t *testing.T) {
	eng := engine.New()
	r := NewFromTrace(Config{Window: time.Second, IPToHost: ipToHost}, eng, request(0, 1, 0, 0, 0))
	if r.Exhausted() {
		t.Fatal("fresh ranker with input should not be exhausted")
	}
	for {
		a := r.Rank()
		if a == nil {
			break
		}
		eng.Handle(a)
	}
	if !r.Exhausted() {
		t.Fatal("drained ranker should be exhausted")
	}
	if r.Buffered() != 0 {
		t.Fatalf("Buffered = %d after drain", r.Buffered())
	}
	if r.Stats().PeakBuffered == 0 {
		t.Fatal("PeakBuffered should be positive")
	}
	if r.Stats().Delivered != 10 {
		t.Fatalf("Delivered = %d, want 10", r.Stats().Delivered)
	}
}

func TestWindowSizeDoesNotAffectCorrectness(t *testing.T) {
	// §5.2: window from 1ms to 10s, accuracy stays 100%.
	for _, w := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second, 10 * time.Second} {
		trace := request(0, 1, 0, 100*time.Millisecond, -50*time.Millisecond)
		_, eng := correlate(t, Config{Window: w, IPToHost: ipToHost}, trace)
		if len(eng.Outputs()) != 1 {
			t.Fatalf("window %v: CAGs = %d", w, len(eng.Outputs()))
		}
		if eng.Outputs()[0].Len() != 10 {
			t.Fatalf("window %v: vertices = %d", w, eng.Outputs()[0].Len())
		}
	}
}

// TestRule2TimestampTieBreak: when the queue heads share a type priority,
// Rule 2 picks the earlier timestamp, whichever host is ranked first.
func TestRule2TimestampTieBreak(t *testing.T) {
	early := act(activity.Begin, 10*time.Millisecond, httpdCtx, clientCh, 200, 1)
	late := act(activity.Begin, 20*time.Millisecond, javaCtx, webApp, 300, 2)
	for _, order := range [][]Source{
		{NewSliceSource("late", []*activity.Activity{late}), NewSliceSource("early", []*activity.Activity{early})},
		{NewSliceSource("early", []*activity.Activity{early}), NewSliceSource("late", []*activity.Activity{late})},
	} {
		r := New(Config{Window: time.Second}, engine.New(), order)
		if got := r.Rank(); got != early {
			t.Fatalf("sources %s,%s: first candidate %v, want the earlier BEGIN %v",
				order[0].Host, order[1].Host, got, early)
		}
		if got := r.Rank(); got != late {
			t.Fatalf("sources %s,%s: second candidate %v, want %v", order[0].Host, order[1].Host, got, late)
		}
	}
}

// TestAttributeFilter: each deny-list matches on either end of the
// channel, and the interned IP set answers exactly like the string map.
func TestAttributeFilter(t *testing.T) {
	drop := AttributeFilter{
		DenyPrograms: map[string]bool{"sshd": true},
		DenyIPs:      map[string]bool{"10.0.0.77": true, "10.0.0.3": false},
		DenyPorts:    map[int]bool{22: true},
	}.Func()
	ssh := activity.Context{Host: "web1", Program: "sshd", PID: 5, TID: 5}
	cases := []struct {
		a    *activity.Activity
		want bool
	}{
		{act(activity.Send, 0, httpdCtx, webApp, 1, -1), false},
		{act(activity.Send, 0, ssh, webApp, 1, -1), true},
		{act(activity.Send, 0, httpdCtx, activity.Channel{Src: activity.EP("10.0.0.77", 1), Dst: activity.EP("10.0.0.1", 80)}, 1, -1), true},
		{act(activity.Send, 0, httpdCtx, activity.Channel{Src: activity.EP("10.0.0.1", 80), Dst: activity.EP("10.0.0.77", 1)}, 1, -1), true},
		{act(activity.Send, 0, javaCtx, appDB, 1, -1), false}, // 10.0.0.3 listed but not denied
		{act(activity.Send, 0, httpdCtx, activity.Channel{Src: activity.EP("10.0.0.1", 5000), Dst: activity.EP("10.0.0.8", 22)}, 1, -1), true},
		{act(activity.Send, 0, httpdCtx, activity.Channel{Src: activity.EP("10.0.0.1", 22), Dst: activity.EP("10.0.0.8", 5000)}, 1, -1), true},
	}
	for i, c := range cases {
		if got := drop(c.a); got != c.want {
			t.Errorf("case %d (%v): dropped %v, want %v", i, c.a, got, c.want)
		}
	}
}

// rankerPass drives r into eng the way the session does (Next, then
// HandleOrds with the carried ordinals) and returns the candidate order
// and each output graph's dump.
func rankerPass(r *Ranker, eng *engine.Engine) (order []*activity.Activity, dumps []string) {
	for {
		a, o := r.Next()
		if a == nil {
			break
		}
		order = append(order, a)
		eng.HandleOrds(a, o)
	}
	for _, g := range eng.Outputs() {
		dumps = append(dumps, cag.Dump(g))
	}
	return order, dumps
}

// A ranker-fed pass and a Handle-fed pass over the same candidates give
// the same graphs, and so does a second ranker-fed pass on the reused
// ranker and engine after an abandoned one: the ordinals the ranker
// carries are what Handle interns, and nothing of a pass survives Reset.
func TestRankerFedMatchesHandleFed(t *testing.T) {
	ms := time.Millisecond
	var trace []*activity.Activity
	trace = append(trace, request(0, 1, 0, 3*ms, -2*ms)...)
	trace = append(trace, request(40*ms, 2, 0, -4*ms, 5*ms)...)
	trace = append(trace, request(80*ms, 3, 0, 1*ms, 0)...)
	// A RECEIVE from an untraced sender: is_noise drops it.
	trace = append(trace, act(activity.Receive, 45*ms, javaCtx,
		activity.Channel{Src: activity.EP("10.0.0.77", 999), Dst: activity.EP("10.0.0.2", 8009)}, 50, -1))
	cfg := Config{Window: ms, IPToHost: ipToHost}

	eng := engine.New()
	r := NewFromTrace(cfg, eng, trace)
	order, want := rankerPass(r, eng)
	if len(want) != 3 || r.Stats().NoiseDropped != 1 {
		t.Fatalf("ranker-fed pass: %d graphs, stats %+v; want 3 graphs and 1 noise drop", len(want), r.Stats())
	}
	wantStats, wantRanker := eng.Stats(), r.Stats()

	eng.Reset()
	for _, a := range order {
		eng.Handle(a)
	}
	var got []string
	for _, g := range eng.Outputs() {
		got = append(got, cag.Dump(g))
	}
	if !slices.Equal(got, want) || eng.Stats() != wantStats {
		t.Fatalf("Handle-fed pass differs:\nranker-fed %q %+v\nHandle-fed %q %+v", want, wantStats, got, eng.Stats())
	}

	// Abandon a pass with SENDs on eight channels still buffered: their
	// counts sit on the ordinals the next pass gives its own channels, the
	// noise RECEIVE's among them.
	var sends []*activity.Activity
	for i := range 8 {
		ch := activity.Channel{Src: activity.EP("10.0.0.1", 50000+i), Dst: activity.EP("10.0.0.2", 8009)}
		sends = append(sends, act(activity.Send, 0, httpdCtx, ch, 10, -1))
	}
	eng.Reset()
	r.Reset(eng, []Source{NewSliceSource("web1", sends)})
	r.Next()

	eng.Reset()
	byHost := SplitByHost(trace)
	var sources []Source
	for _, h := range []string{"app1", "db1", "web1"} {
		sources = append(sources, NewSliceSource(h, byHost[h]))
	}
	r.Reset(eng, sources)
	if _, again := rankerPass(r, eng); !slices.Equal(again, want) || r.Stats() != wantRanker {
		t.Fatalf("reused ranker+engine pass differs:\nfirst  %q %+v\nsecond %q %+v", want, wantRanker, again, r.Stats())
	}
}

// The Debug assertions fire on the faults they exist for: a SEND counter
// that disagrees with the buffer, and buffered ordinals whose engine was
// Reset under them.
func TestDebugAssertionsFire(t *testing.T) {
	defer func(d bool) { Debug = d }(Debug)
	Debug = true
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", what)
			}
		}()
		f()
	}

	eng := engine.New()
	r := NewFromTrace(Config{Window: time.Second, IPToHost: ipToHost}, eng, request(0, 1, 0, 0, 0))
	r.refill() // the 1 s window buffers the whole request
	var recv *entry
	for _, q := range r.queues {
		if h := q.peek(); h != nil && h.a.Type == activity.Receive {
			recv = h
		}
	}
	if recv == nil || r.bufferedSends[recv.o.Chan] != 1 {
		t.Fatal("fixture: want a head RECEIVE whose SEND is buffered")
	}
	r.assertNoBufferedSend(recv) // consistent: no panic
	r.bufferedSends[recv.o.Chan] = 0
	mustPanic("counter out of step with the buffer", func() { r.assertNoBufferedSend(recv) })
	r.bufferedSends[recv.o.Chan] = 1

	eng.Reset()
	mustPanic("ordinals from before an engine Reset", func() { r.Next() })
}
