package core

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
)

// rollOpts is the rolling-seal fixture: web1 is the entry tier, db1 its
// backend, and 10.9.9.x are untraced clients.
func rollOpts(workers int, sealAfter time.Duration) Options {
	return Options{
		Window:     time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "web1", "10.0.0.2": "db1"},
		Workers:    workers,
		SealAfter:  sealAfter,
	}
}

var rollHosts = []string{"web1", "db1"}

// rollTrace builds rolling-seal traces in merged timestamp order.
type rollTrace struct {
	recs []*activity.Activity
	id   int64
}

func (b *rollTrace) add(typ activity.Type, ts time.Duration, host, prog string, tid int, src, dst string, sport, dport int) {
	b.id++
	b.recs = append(b.recs, mkRaw(b.id, typ, ts, host, prog, tid, src, dst, sport, dport))
}

// sshNoise adds a §5.3.3 interactive session that never idles: an
// untraced client keystroking into web1's sshd on one connection, one
// exchange every period from start to end. It holds no BEGIN and touches
// one traced host.
func (b *rollTrace) sshNoise(start, end, period time.Duration, tid, cport int) {
	for t := start; t < end; t += period {
		b.add(activity.Receive, t, "web1", "sshd", tid, "10.9.9.8", "10.0.0.1", cport, 22)
		b.add(activity.Send, t+period/4, "web1", "sshd", tid, "10.0.0.1", "10.9.9.8", 22, cport)
	}
}

// poolChatter adds BEGIN-less traffic on a pooled web1→db1 connection
// (10.0.0.1:pport ↔ 10.0.0.2:3306): web1's cron thread queries db1's
// mysqld thread dbTid once per period. It spans two traced hosts.
func (b *rollTrace) poolChatter(start, end, period time.Duration, dbTid, pport int) {
	for t := start; t < end; t += period {
		b.add(activity.Send, t, "web1", "cron", 9, "10.0.0.1", "10.0.0.2", pport, 3306)
		b.add(activity.Receive, t+period/8, "db1", "mysqld", dbTid, "10.0.0.1", "10.0.0.2", pport, 3306)
		b.add(activity.Send, t+period/4, "db1", "mysqld", dbTid, "10.0.0.2", "10.0.0.1", 3306, pport)
		b.add(activity.Receive, t+3*period/8, "web1", "cron", 9, "10.0.0.2", "10.0.0.1", 3306, pport)
	}
}

// request adds one two-tier request starting at t: BEGIN on web1's httpd
// thread tid from client port cport, one query to db1 over the web1 port
// qport (a pooled connection when qport is reused), END 2ms later.
func (b *rollTrace) request(t time.Duration, tid, cport, qport, dbTid int) {
	us := time.Microsecond
	b.add(activity.Receive, t, "web1", "httpd", tid, "10.9.9.9", "10.0.0.1", cport, 80)
	b.add(activity.Send, t+200*us, "web1", "httpd", tid, "10.0.0.1", "10.0.0.2", qport, 3306)
	b.add(activity.Receive, t+400*us, "db1", "mysqld", dbTid, "10.0.0.1", "10.0.0.2", qport, 3306)
	b.add(activity.Send, t+900*us, "db1", "mysqld", dbTid, "10.0.0.2", "10.0.0.1", 3306, qport)
	b.add(activity.Receive, t+1100*us, "web1", "httpd", tid, "10.0.0.2", "10.0.0.1", 3306, qport)
	b.add(activity.Send, t+2*time.Millisecond, "web1", "httpd", tid, "10.0.0.1", "10.9.9.9", 80, cport)
}

// sorted returns the records in merged timestamp order (stable, so
// equal-timestamp records keep their build order).
func (b *rollTrace) sorted() []*activity.Activity {
	sort.SliceStable(b.recs, func(i, j int) bool { return b.recs[i].Timestamp < b.recs[j].Timestamp })
	return b.recs
}

// copyTrace deep-copies records: a session binds and classifies the
// caller's records in place, and each run must start from raw input.
func copyTrace(trace []*activity.Activity) []*activity.Activity {
	out := make([]*activity.Activity, len(trace))
	for i, a := range trace {
		cp := *a
		out[i] = &cp
	}
	return out
}

// assertRunFree checks the run free list's bookkeeping against the
// session's state: held and live equal what they claim to count, every
// array on the list is zeroed, and the list never holds more than live
// components do.
func assertRunFree(t *testing.T, s *Session) {
	t.Helper()
	held := 0
	for k, stack := range s.runFree.free {
		for _, r := range stack {
			if cap(r) != minRun<<k || len(r) != 0 {
				t.Fatalf("free list class %d holds an array of len %d cap %d", k, len(r), cap(r))
			}
			for i, pr := range r[:cap(r)] {
				if pr != (pushRec{}) {
					t.Fatalf("free list class %d: array slot %d not zeroed", k, i)
				}
			}
			held += cap(r)
		}
	}
	live := 0
	for _, c := range s.comps {
		if !c.sealed {
			for _, run := range c.runs {
				live += cap(run.recs)
			}
		}
	}
	if held != s.runFree.held || live != s.runFree.live {
		t.Fatalf("free list accounting: held %d (counted %d), live %d (counted %d)", s.runFree.held, held, s.runFree.live, live)
	}
	if held > live {
		t.Fatalf("free list holds %d records of capacity, live components only %d", held, live)
	}
}

// TestRollingSealBoundsNoise: a never-idle BEGIN-less connection beside
// ordinary requests. Without the rolling seal the noise component holds
// every record it ever received until Close; with it, what stays
// buffered after each Drain is bounded by about two horizons of traffic.
// Rolling must not change a single graph, nor the ranker and engine
// counters, against the close-driven CorrelateTrace of the same trace.
func TestRollingSealBoundsNoise(t *testing.T) {
	const (
		horizon  = 20 * time.Millisecond
		period   = 2 * time.Millisecond // noise: 2 records per period
		spacing  = 10 * time.Millisecond
		requests = 60
	)
	var b rollTrace
	end := requests * spacing
	b.sshNoise(0, end, period, 7, 6000)
	for k := 0; k < requests; k++ {
		b.request(time.Duration(k)*spacing+time.Millisecond, k%4+1, 40000+k, 50000+k, k%3+1)
	}
	trace := b.sorted()

	ref, err := New(rollOpts(1, 0)).CorrelateTrace(copyTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Graphs) != requests {
		t.Fatalf("reference: %d graphs, want %d", len(ref.Graphs), requests)
	}

	// After a Drain the noise component spans at most two horizons (it
	// rolls as soon as its oldest record is older than that), and only
	// the requests of the last horizon — plus the one in progress — are
	// unsealed.
	bound := int(2*horizon/period)*2 + 2 + (int(horizon/spacing)+2)*6
	for _, drainEvery := range []int{1, 7, 64} {
		sess, err := NewSession(rollOpts(2, horizon), rollHosts)
		if err != nil {
			t.Fatal(err)
		}
		peak := 0
		for i, a := range copyTrace(trace) {
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
			if (i+1)%drainEvery == 0 {
				sess.Drain()
				peak = max(peak, sess.Pending())
				assertRunFree(t, sess)
			}
		}
		if peak > bound+drainEvery {
			t.Fatalf("drain every %d: %d activities pending after a Drain, bound %d", drainEvery, peak, bound+drainEvery)
		}
		out := sess.Close()
		assertSameGraphs(t, "drain every "+strconv.Itoa(drainEvery), ref, out)
		if out.Ranker != ref.Ranker {
			t.Fatalf("drain every %d: ranker counters %+v, CorrelateTrace %+v", drainEvery, out.Ranker, ref.Ranker)
		}
		if out.Engine != ref.Engine {
			t.Fatalf("drain every %d: engine counters %+v, CorrelateTrace %+v", drainEvery, out.Engine, ref.Engine)
		}
	}
}

// TestRollingSealThenBegin: a pooled web1→db1 connection carries
// BEGIN-less chatter long enough to roll several prefixes; then a request
// reuses the pooled connection, so its BEGIN fuses into the component
// whose older records have already been rolled. The request's graph
// must equal the close-driven CorrelateTrace's.
func TestRollingSealThenBegin(t *testing.T) {
	const horizon = 20 * time.Millisecond
	var b rollTrace
	b.poolChatter(0, 300*time.Millisecond, 4*time.Millisecond, 4, 5555)
	// The request runs on the pooled connection and db1's chatter thread
	// between two chatter exchanges, and chatter carries on after it.
	b.request(301*time.Millisecond, 1, 40000, 5555, 4)
	b.poolChatter(304*time.Millisecond, 400*time.Millisecond, 4*time.Millisecond, 4, 5555)
	// Separate requests keep the activity clock moving after the chatter
	// stops, so the fused component is force-sealed rather than closed.
	for k := 0; k < 5; k++ {
		b.request(time.Duration(400+10*k)*time.Millisecond, 2, 41000+k, 51000+k, 5)
	}
	trace := b.sorted()

	ref, err := New(rollOpts(1, 0)).CorrelateTrace(copyTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Graphs) != 6 {
		t.Fatalf("reference: %d graphs, want 6", len(ref.Graphs))
	}
	for _, workers := range []int{1, 2} {
		sess, err := NewSession(rollOpts(workers, horizon), rollHosts)
		if err != nil {
			t.Fatal(err)
		}
		chatter, rolledBeforeBegin := 0, false
		for i, a := range copyTrace(trace) {
			if a.Ctx.Program == "httpd" && a.Timestamp == 301*time.Millisecond && !rolledBeforeBegin {
				// The BEGIN is next: the chatter component must have
				// rolled, or this test exercises nothing.
				if p := sess.Pending(); p >= chatter {
					t.Fatalf("workers=%d: %d of %d chatter records still pending at the BEGIN", workers, p, chatter)
				}
				rolledBeforeBegin = true
			}
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
			if a.Ctx.Program == "cron" || a.Ctx.Program == "mysqld" {
				chatter++
			}
			if (i+1)%5 == 0 {
				sess.Drain()
				assertRunFree(t, sess)
			}
		}
		out := sess.Close()
		assertSameGraphs(t, "workers="+strconv.Itoa(workers), ref, out)
	}
}

// FuzzRollingSeal varies the noise, the pooled-connection chatter, the
// requests that reuse it, each host's delivery lag and the Drain cadence,
// and requires the continuous session's graphs to equal the close-driven
// CorrelateTrace's, with what BEGIN-less components hold bounded
// throughout.
func FuzzRollingSeal(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		f.Add(seed, uint8(seed*13))
	}
	f.Fuzz(func(t *testing.T, seed int64, cadence uint8) {
		const horizon = 20 * time.Millisecond
		rng := rand.New(rand.NewSource(seed))
		var b rollTrace
		// bound is what BEGIN-less components may hold after a Drain: each
		// never-idle stream rolls once its oldest record is two horizons
		// old, so it keeps at most a closed two-horizon window of exchanges
		// (plus what arrived since the last Drain, added below). A request
		// on the pooled connection gives the chatter a BEGIN; from then on
		// it is not rolled, and not counted.
		bound := 0
		end := time.Duration(150+rng.Intn(250)) * time.Millisecond
		for n := rng.Intn(3); n >= 0; n-- {
			period := time.Duration(1000+rng.Intn(4000)) * time.Microsecond
			b.sshNoise(time.Duration(rng.Intn(5000))*time.Microsecond, end, period, 20+n, 6000+n)
			bound += 2 * int(2*horizon/period+2)
		}
		pooled := rng.Intn(2) == 0
		if pooled {
			b.poolChatter(0, end, 8*time.Millisecond, 4, 5555)
			bound += 4 * int(2*horizon/(8*time.Millisecond)+2)
		}
		// Requests, on a grid that keeps them clear of one another and of
		// the chatter exchanges (which occupy the first 3ms of every 8).
		reqs := 0
		for t := 4 * time.Millisecond; t+4*time.Millisecond < end; t += 8 * time.Millisecond {
			if rng.Intn(3) != 0 {
				continue
			}
			qport, dbTid := 50000+reqs, 1+reqs%3
			if pooled && rng.Intn(2) == 0 {
				qport, dbTid = 5555, 4 // reuse the pooled connection
			}
			b.request(t, 1+reqs%4, 40000+reqs, qport, dbTid)
			reqs++
		}
		trace := b.sorted()
		ref, err := New(rollOpts(1, 0)).CorrelateTrace(copyTrace(trace))
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Graphs) != reqs {
			t.Fatalf("reference: %d graphs, want %d", len(ref.Graphs), reqs)
		}

		// Interleave the hosts: one host's stream is delivered up to lag
		// behind the other's — well inside the horizon, so the liveness
		// presumption holds and nothing may split. A lagging web1 puts a
		// pooled request's db1 records into the chatter component before
		// its BEGIN arrives, which is what the roll's floor protects.
		lag, lagging := time.Duration(rng.Intn(int(horizon/4))), rollHosts[rng.Intn(2)]
		arrival := copyTrace(trace)
		sort.SliceStable(arrival, func(i, j int) bool {
			at := func(a *activity.Activity) time.Duration {
				if a.Ctx.Host == lagging {
					return a.Timestamp + lag
				}
				return a.Timestamp
			}
			return at(arrival[i]) < at(arrival[j])
		})
		drainEvery := 1 + int(cadence)%32
		sess, err := NewSession(rollOpts(1+rng.Intn(2), horizon), rollHosts)
		if err != nil {
			t.Fatal(err)
		}
		bound += drainEvery
		for i, a := range arrival {
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
			if (i+1)%drainEvery == 0 {
				sess.Drain()
				if n := beginLessActs(sess); n > bound {
					t.Fatalf("BEGIN-less components hold %d activities after a Drain, bound %d", n, bound)
				}
				assertRunFree(t, sess)
			}
		}
		out := sess.Close()
		assertSameGraphs(t, "fuzz", ref, out)
	})
}

// beginLessActs counts the activities live components without a BEGIN
// hold: what the rolling seal bounds.
func beginLessActs(s *Session) int {
	n := 0
	for _, c := range s.comps {
		if !c.sealed && c.minBegin == noBound {
			n += c.size
		}
	}
	return n
}

// TestRunFreeHygiene covers what the recycling must never do: keep a
// dirty array, hold more than the live components, outlive a
// close-driven session, or let a reused component inherit a previous
// life's provenance.
func TestRunFreeHygiene(t *testing.T) {
	t.Run("close-driven session ends empty", func(t *testing.T) {
		var b rollTrace
		b.sshNoise(0, 100*time.Millisecond, time.Millisecond, 7, 6000)
		for k := 0; k < 10; k++ {
			b.request(time.Duration(10*k)*time.Millisecond, k%4+1, 40000+k, 50000+k, 1)
		}
		sess, err := NewSession(rollOpts(2, 0), rollHosts)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range b.sorted() {
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
			if i%16 == 0 {
				sess.Drain()
				assertRunFree(t, sess)
			}
		}
		if sess.runFree.live == 0 {
			t.Fatal("setup: no live run capacity before Close")
		}
		sess.Close()
		assertRunFree(t, sess)
		if held := sess.runFree.held; held != 0 {
			t.Fatalf("closed session keeps %d records of run capacity", held)
		}
	})

	t.Run("reused component starts clean", func(t *testing.T) {
		sess, err := NewSession(foreverOpts(1, 20*time.Millisecond), []string{"web1", "web2"})
		if err != nil {
			t.Fatal(err)
		}
		// Request 0 is force-sealed once the clock passes it; a straggler
		// END on its connection then late-links onto a fresh component.
		for k := 0; k < 8; k++ {
			pushRequest(t, sess, k, time.Duration(k)*10*time.Millisecond)
		}
		sess.Drain()
		straggler := mkRaw(999, activity.Send, 71*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, 40000)
		if err := sess.Push(straggler); err != nil {
			t.Fatal(err)
		}
		var stale *sessComponent
		for _, c := range sess.comps {
			if c.late {
				stale = c
			}
		}
		if stale == nil {
			t.Fatal("setup: the straggler did not late-link")
		}
		// Advance the clock past the straggler's horizon: it force-seals,
		// forced and late, and its struct goes back to the free list.
		for k := 8; k < 12; k++ {
			pushRequest(t, sess, k, time.Duration(k)*10*time.Millisecond)
		}
		sess.Drain()
		if !stale.forced || !stale.late {
			t.Fatalf("setup: straggler component forced=%v late=%v, want both", stale.forced, stale.late)
		}
		at := -1
		for i, c := range sess.compFree {
			if c == stale {
				at = i
			}
		}
		if at < 0 {
			t.Fatal("absorbed component not returned to the free list")
		}
		// Put it on top so the next new component reuses it.
		last := len(sess.compFree) - 1
		sess.compFree[at], sess.compFree[last] = sess.compFree[last], sess.compFree[at]

		pushRequest(t, sess, 12, 130*time.Millisecond)
		var reused *sessComponent
		for _, c := range sess.comps {
			if c == stale {
				reused = c
			}
		}
		if reused == nil {
			t.Fatal("the new request did not reuse the recycled component")
		}
		if reused.forced || reused.late || reused.sealed || reused.size != 2 || len(reused.runs) != 1 || reused.minBegin != 130*time.Millisecond {
			t.Fatalf("reused component not reset: forced=%v late=%v sealed=%v size=%d runs=%d minBegin=%v",
				reused.forced, reused.late, reused.sealed, reused.size, len(reused.runs), reused.minBegin)
		}
		// Host closure, not the horizon, seals it: its graph carries no
		// provenance.
		for _, h := range []string{"web1", "web2"} {
			if err := sess.CloseHost(h); err != nil {
				t.Fatal(err)
			}
		}
		out := sess.Close()
		var last13 *cag.Graph
		for _, g := range out.Graphs {
			if g.Root().Timestamp == 130*time.Millisecond {
				last13 = g
			}
		}
		if last13 == nil {
			t.Fatal("the reused component's request produced no graph")
		}
		if forced, late := last13.Provenance(); forced || late {
			t.Fatalf("graph of a host-closed reused component reports forced=%v late=%v", forced, late)
		}
	})
}
