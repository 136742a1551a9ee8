package ranker

import (
	"slices"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
)

// A sender whose remaining records are all filter-dropped is not
// exhausted until the cursor has passed them: a RECEIVE blocked on it is
// kept through two window extensions before is_noise may drop it. The
// expected figures are what the ranker gave when it still fetched from
// its source one record at a time, with the filter applied at fetch.
func TestFilterDroppedTailKeepsSenderLive(t *testing.T) {
	ms := time.Millisecond
	dbSSH := activity.Context{Host: "db1", Program: "sshd", PID: 999, TID: 999}
	dbSSHCh := activity.Channel{Src: activity.EP("10.0.0.77", 2222), Dst: activity.EP("10.0.0.3", 22)}
	webSSH := activity.Context{Host: "web1", Program: "sshd", PID: 998, TID: 998}
	webSSHCh := activity.Channel{Src: activity.EP("10.0.0.77", 2223), Dst: activity.EP("10.0.0.1", 22)}
	trace := request(0, 1, 0, 0, 0)
	trace = append(trace,
		// Blocked on db1, a traced sender that never sends it.
		act(activity.Receive, 7*ms, javaCtx,
			activity.Channel{Src: activity.EP("10.0.0.3", 7777), Dst: activity.EP("10.0.0.2", 9999)}, 40, -1),
		// db1's tail: filter-dropped only.
		act(activity.Receive, 16*ms, dbSSH, dbSSHCh, 64, -1),
		act(activity.Send, 40*ms, dbSSH, dbSSHCh.Reverse(), 64, -1),
		act(activity.Receive, 41*ms, dbSSH, dbSSHCh, 64, -1),
		// Filter-dropped records between web1's kept ones.
		act(activity.Receive, 3*ms, webSSH, webSSHCh, 64, -1),
		act(activity.Send, 21*ms, webSSH, webSSHCh.Reverse(), 64, -1),
	)
	const dump = "  0 BEGIN   t=0s           web1/httpd[10:10] 200B\n" +
		"  1 SEND    t=2ms          web1/httpd[10:10] c<-0 300B\n" +
		"  2 RECEIVE t=5ms          app1/java[20:21] m<-1 300B\n" +
		"  3 SEND    t=8ms          app1/java[20:21] c<-2 100B\n" +
		"  4 RECEIVE t=10ms         db1/mysqld[30:31] m<-3 100B\n" +
		"  5 SEND    t=15ms         db1/mysqld[30:31] c<-4 900B\n" +
		"  6 RECEIVE t=17ms         app1/java[20:21] c<-3 m<-5 900B\n" +
		"  7 SEND    t=20ms         app1/java[20:21] c<-6 700B\n" +
		"  8 RECEIVE t=22ms         web1/httpd[10:10] c<-1 m<-7 700B\n" +
		"  9 END     t=24ms         web1/httpd[10:10] c<-8 700B\n"
	filter := AttributeFilter{DenyPrograms: map[string]bool{"sshd": true}}.Func()
	for _, c := range []struct {
		exact bool
		want  Stats
	}{
		{false, Stats{Fetched: 11, Delivered: 10, FilterDropped: 5, NoiseDropped: 1, Extensions: 2, PeakBuffered: 8}},
		{true, Stats{Fetched: 11, Delivered: 10, FilterDropped: 5, NoiseDropped: 1, PeakBuffered: 4}},
	} {
		r, eng := correlate(t, Config{Window: ms, IPToHost: ipToHost, Filter: filter, PaperExactNoise: c.exact}, trace)
		if r.Stats() != c.want {
			t.Errorf("PaperExactNoise=%v: stats %+v, want %+v", c.exact, r.Stats(), c.want)
		}
		if outs := eng.Outputs(); len(outs) != 1 {
			t.Errorf("PaperExactNoise=%v: %d graphs, want 1", c.exact, len(outs))
		} else if got := cag.Dump(outs[0]); got != dump {
			t.Errorf("PaperExactNoise=%v: graph\n%s\nwant\n%s", c.exact, got, dump)
		}
	}
}

// A component far larger than a block ranks correctly, and each queue
// holds at most the window's records plus one block, not the component:
// blocks are loaded only as the cursor needs them, and the window slides
// to the front of the queue's buffer before the next block lands.
func TestQueueHoldsWindowPlusBlock(t *testing.T) {
	ms := time.Millisecond
	var trace []*activity.Activity
	const requests = 1000
	for i := range requests {
		trace = append(trace, request(time.Duration(i)*30*ms, int64(i), 0, 3*ms, -2*ms)...)
	}
	r, eng := correlate(t, Config{Window: ms, IPToHost: ipToHost}, trace)
	st := r.Stats()
	if st.Delivered != 10*requests || st.NoiseDropped != 0 || st.ForcedPops != 0 {
		t.Fatalf("stats %+v: want all %d records delivered, none dropped or forced", st, 10*requests)
	}
	outs := eng.Outputs()
	if len(outs) != requests {
		t.Fatalf("%d graphs, want %d", len(outs), requests)
	}
	for i, g := range outs {
		if ids := g.RequestIDs(); g.Len() != 10 || len(ids) != 1 || ids[0] != int64(i) {
			t.Fatalf("graph %d: %d vertices of requests %v, want 10 of request %d", i, g.Len(), ids, i)
		}
	}
	if st.PeakBuffered > 20 {
		t.Fatalf("PeakBuffered = %d: a 1 ms window over requests 30 ms apart holds a few records", st.PeakBuffered)
	}
	for _, q := range r.queues {
		if len(q.src.Recs) <= 2*rankBlock {
			t.Fatalf("%s holds %d records: too few to span several blocks", q.src.Host, len(q.src.Recs))
		}
		if c := cap(q.buf); c > st.PeakBuffered+rankBlock {
			t.Errorf("%s: buffer capacity %d, want at most %d (window %d + block %d)",
				q.src.Host, c, st.PeakBuffered+rankBlock, st.PeakBuffered, rankBlock)
		}
	}
}

// A ranker reused after an abandoned pass ranks exactly as a fresh one.
// The abandoned pass buffers a burst of 1 000 records, so the queue
// keeps room for them; the next pass then loads its later blocks into
// that room behind a live window instead of sliding the window first.
func TestReusedQueueRanksTheSame(t *testing.T) {
	var trace []*activity.Activity
	for i := range 100 {
		trace = append(trace, request(time.Duration(i)*30*time.Millisecond, int64(i), 0, 0, 0)...)
	}
	byHost := SplitByHost(trace)
	var sources []Source // plain logs: both passes read the same ones
	for _, h := range []string{"app1", "db1", "web1"} {
		sources = append(sources, NewSliceSource(h, byHost[h]))
	}
	cfg := Config{Window: time.Millisecond, IPToHost: ipToHost}
	eng := engine.New()
	want, _ := rankerPass(New(cfg, eng, sources), eng)

	var burst []*activity.Activity
	for i := range 1000 {
		ch := activity.Channel{Src: activity.EP("10.0.0.1", 20000+i), Dst: activity.EP("10.0.0.2", 8009)}
		burst = append(burst, act(activity.Send, 0, httpdCtx, ch, 10, -1))
	}
	eng = engine.New()
	r := New(cfg, eng, []Source{NewSliceSource("web1", burst)})
	for range 10 {
		r.Next()
	}
	eng.Reset()
	r.Reset(eng, sources)
	if got, _ := rankerPass(r, eng); !slices.Equal(got, want) {
		t.Fatalf("reused ranker ranked %d records, a fresh one %d, in another order", len(got), len(want))
	}
}
