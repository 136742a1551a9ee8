package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/rubis"
)

// pushReplay replays the trace into the session in global timestamp order
// (the arrival approximation every online test uses), draining every
// chunk records, and closes the session.
func pushReplay(t *testing.T, sess *Session, res *rubis.Result, chunk int) *Result {
	t.Helper()
	for i, a := range arrivalOrder(res.Trace) {
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
		if chunk > 0 && (i+1)%chunk == 0 {
			sess.Drain()
		}
	}
	return sess.Close()
}

func sessionOptions(res *rubis.Result, workers int, mode ShardMode) Options {
	return Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
		Workers:    workers,
		ShardBy:    mode,
	}
}

// TestParallelSessionEquivalence is the tentpole guarantee: for the same
// push order, the sharded push-mode Session emits exactly the sequential
// Session's graphs — same contents, same order — for every worker count
// and shard mode, and the shard engines collectively did exactly the
// sequential engine's work.
func TestParallelSessionEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		clients int
		scale   float64
		noise   int
	}{
		{"clean", 120, 0.03, 0},
		{"noisy", 120, 0.03, 8},
		{"larger", 300, 0.05, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := rubisTrace(t, tc.clients, tc.scale, tc.noise)
			seqSess, err := NewSession(sessionOptions(res, 1, ShardByFlow), hostsOf(res))
			if err != nil {
				t.Fatal(err)
			}
			seq := pushReplay(t, seqSess, res, 256)
			if len(seq.Graphs) == 0 {
				t.Fatal("sequential session produced no graphs")
			}
			for _, workers := range []int{4, 8} {
				for _, mode := range []ShardMode{ShardByFlow, ShardByContext} {
					label := fmt.Sprintf("workers=%d shardby=%s", workers, mode)
					parSess, err := NewSession(sessionOptions(res, workers, mode), hostsOf(res))
					if err != nil {
						t.Fatal(err)
					}
					par := pushReplay(t, parSess, res, 256)
					assertSameGraphs(t, label, seq, par)
					if par.Engine.Begins != seq.Engine.Begins ||
						par.Engine.Finished != seq.Engine.Finished ||
						par.Engine.Sends != seq.Engine.Sends ||
						par.Engine.Receives != seq.Engine.Receives {
						t.Fatalf("%s: engine stats diverged: got %+v, want %+v", label, par.Engine, seq.Engine)
					}
					if par.Activities != seq.Activities {
						t.Fatalf("%s: activities %d, want %d", label, par.Activities, seq.Activities)
					}
					if par.Shards == 0 {
						t.Fatalf("%s: sharded session reported no shards", label)
					}
				}
			}
		})
	}
}

// TestParallelSessionDeterminism: goroutine scheduling must never leak
// into the emitted stream.
func TestParallelSessionDeterminism(t *testing.T) {
	res := rubisTrace(t, 120, 0.03, 4)
	run := func() *Result {
		sess, err := NewSession(sessionOptions(res, 8, ShardByFlow), hostsOf(res))
		if err != nil {
			t.Fatal(err)
		}
		return pushReplay(t, sess, res, 128)
	}
	first := run()
	for i := 0; i < 3; i++ {
		assertSameGraphs(t, fmt.Sprintf("run %d", i), first, run())
	}
}

// TestParallelSessionOnGraphOrder verifies the watermark emitter's
// streaming contract: the sink fires single-goroutine in non-decreasing
// END-timestamp order and sees every graph.
func TestParallelSessionOnGraphOrder(t *testing.T) {
	res := rubisTrace(t, 120, 0.03, 0)
	var streamed []*cag.Graph
	opts := sessionOptions(res, 4, ShardByFlow)
	opts.Sinks = []GraphSink{GraphSinkFunc(func(g *cag.Graph) { streamed = append(streamed, g) })}
	sess, err := NewSession(opts, hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	out := pushReplay(t, sess, res, 64)
	if len(out.Graphs) != 0 {
		t.Fatalf("streaming mode accumulated %d graphs", len(out.Graphs))
	}
	if len(streamed) == 0 {
		t.Fatal("no graphs streamed")
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i].End().Timestamp < streamed[i-1].End().Timestamp {
			t.Fatalf("stream order regressed at %d", i)
		}
	}
	seqSess, err := NewSession(sessionOptions(res, 1, ShardByFlow), hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	seq := pushReplay(t, seqSess, res, 64)
	if len(streamed) != len(seq.Graphs) {
		t.Fatalf("streamed %d graphs, sequential emitted %d", len(streamed), len(seq.Graphs))
	}
	for i := range streamed {
		if fingerprint(streamed[i]) != fingerprint(seq.Graphs[i]) {
			t.Fatalf("streamed graph %d differs from sequential", i)
		}
	}
}

// TestParallelSessionStaggeredClose exercises the seal/watermark path
// mid-stream: closing hosts one by one releases nothing while the front
// tier is still open (every component can still grow), and everything
// once the last stream closes — before Close is ever called.
func TestParallelSessionStaggeredClose(t *testing.T) {
	res := rubisTrace(t, 120, 0.03, 0)
	hosts := hostsOf(res)
	sess, err := NewSession(sessionOptions(res, 4, ShardByFlow), hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivalOrder(res.Trace) {
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	// Close every host but the front tier: all components still touch the
	// open front-tier stream, so nothing seals and nothing is emitted.
	var front string
	for _, h := range hosts {
		if h == "web1" {
			front = h
			continue
		}
		if err := sess.CloseHost(h); err != nil {
			t.Fatal(err)
		}
	}
	if front == "" {
		t.Fatal("trace has no web1 front tier")
	}
	sess.Drain()
	if n := len(sess.Graphs()); n != 0 {
		t.Fatalf("emitted %d graphs while the front tier was open", n)
	}
	// Closing the last stream seals every component; Drain (not Close)
	// must release the full set.
	if err := sess.CloseHost(front); err != nil {
		t.Fatal(err)
	}
	sess.Drain()
	mid := len(sess.Graphs())
	if mid == 0 {
		t.Fatal("no graphs released after the last CloseHost")
	}
	out := sess.Close()
	if len(out.Graphs) != mid {
		t.Fatalf("Close added %d graphs after the final drain", len(out.Graphs)-mid)
	}
	seqSess, err := NewSession(sessionOptions(res, 1, ShardByFlow), hosts)
	if err != nil {
		t.Fatal(err)
	}
	seq := pushReplay(t, seqSess, res, 0)
	assertSameGraphs(t, "staggered close", seq, out)
}

// mkRaw builds a raw (unclassified) frontier record for the synthetic
// watermark fixtures.
func mkRaw(id int64, typ activity.Type, ts time.Duration, host, program string, tid int, src, dst string, srcPort, dstPort int) *activity.Activity {
	return &activity.Activity{
		ID: id, Type: typ, Timestamp: ts,
		Ctx: activity.Context{Host: host, Program: program, PID: 1, TID: int32(tid)},
		Chan: activity.Channel{
			Src: activity.EP(src, srcPort),
			Dst: activity.EP(dst, dstPort),
		},
		Size: 64, ReqID: -1, MsgID: -1,
	}
}

// TestParallelSessionWatermarkReleasesEarly is the fine-grained watermark
// check: two independent single-host requests on two hosts; closing the
// first host seals its component, and its graph is released while the
// second host's stream is still open — because the open stream's last
// timestamp has advanced past the finished graph's END.
func TestParallelSessionWatermarkReleasesEarly(t *testing.T) {
	opts := Options{
		Window:     time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "web1", "10.0.0.2": "web2"},
		Workers:    2,
	}
	sess, err := NewSession(opts, []string{"web1", "web2"})
	if err != nil {
		t.Fatal(err)
	}
	push := func(a *activity.Activity) {
		t.Helper()
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	// web1: one complete request, END at 2ms.
	push(mkRaw(1, activity.Receive, 1*time.Millisecond, "web1", "httpd", 1, "10.9.9.9", "10.0.0.1", 40000, 80))
	push(mkRaw(2, activity.Send, 2*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, 40000))
	// web2: a request in progress, its stream already past 6ms.
	push(mkRaw(3, activity.Receive, 5*time.Millisecond, "web2", "httpd", 2, "10.9.9.8", "10.0.0.2", 41000, 80))
	push(mkRaw(4, activity.Send, 6*time.Millisecond, "web2", "httpd", 2, "10.0.0.2", "10.9.9.8", 80, 41000))

	if err := sess.CloseHost("web1"); err != nil {
		t.Fatal(err)
	}
	sess.Drain()
	if n := len(sess.Graphs()); n != 1 {
		t.Fatalf("watermark released %d graphs, want 1 (web1's finished request)", n)
	}
	if got := sess.Graphs()[0].End().Timestamp; got != 2*time.Millisecond {
		t.Fatalf("released the wrong graph (END %v)", got)
	}
	if sess.Pending() == 0 {
		t.Fatal("web2's request should still be pending")
	}
	out := sess.Close()
	if len(out.Graphs) != 2 {
		t.Fatalf("final graphs = %d, want 2", len(out.Graphs))
	}
	if out.Shards != 2 {
		t.Fatalf("shards = %d, want 2", out.Shards)
	}
}

// TestSessionPushAfterCloseHost: a closed stream rejects pushes in both
// execution modes, while other streams stay usable.
func TestSessionPushAfterCloseHost(t *testing.T) {
	res := fastRun(t, 10, nil)
	for _, workers := range []int{1, 4} {
		opts := options(res)
		opts.Workers = workers
		sess, err := NewSession(opts, hostsOf(res))
		if err != nil {
			t.Fatal(err)
		}
		var closed, other string
		for h := range res.PerHost {
			if closed == "" {
				closed = h
			} else if other == "" {
				other = h
			}
		}
		if err := sess.CloseHost(closed); err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Trace {
			if a.Ctx.Host == closed {
				if err := sess.Push(a); err == nil {
					t.Fatalf("workers=%d: push on closed host succeeded", workers)
				}
				break
			}
		}
		for _, a := range res.PerHost[other] {
			if err := sess.Push(a); err != nil {
				t.Fatalf("workers=%d: open host rejected push: %v", workers, err)
			}
			break
		}
		sess.Close()
	}
}

// TestSessionDrainEmptyAndDoubleClose: Drain with an empty buffer is a
// no-op in both modes; Close is idempotent; Push after Close fails.
func TestSessionDrainEmptyAndDoubleClose(t *testing.T) {
	res := fastRun(t, 10, nil)
	for _, workers := range []int{1, 4} {
		opts := options(res)
		opts.Workers = workers
		sess, err := NewSession(opts, hostsOf(res))
		if err != nil {
			t.Fatal(err)
		}
		if n := sess.Drain(); n != 0 {
			t.Fatalf("workers=%d: empty drain processed %d", workers, n)
		}
		if sess.Pending() != 0 {
			t.Fatalf("workers=%d: empty session pending", workers)
		}
		out := sess.Close()
		if len(out.Graphs) != 0 || out.Activities != 0 {
			t.Fatalf("workers=%d: empty close: %+v", workers, out)
		}
		if err := sess.Push(res.Trace[0]); err == nil {
			t.Fatalf("workers=%d: push after close succeeded", workers)
		}
		if again := sess.Close(); again != out {
			t.Fatalf("workers=%d: second Close returned a different result", workers)
		}
	}
}

// TestSessionInterleavedCloseHostPush: streams close at different times
// while others keep pushing — the realistic rolling-agent-shutdown
// shape — and the final output still matches the sequential session.
func TestSessionInterleavedCloseHostPush(t *testing.T) {
	res := rubisTrace(t, 80, 0.03, 0)
	hosts := hostsOf(res)
	run := func(workers int) *Result {
		sess, err := NewSession(sessionOptions(res, workers, ShardByFlow), hosts)
		if err != nil {
			t.Fatal(err)
		}
		// Push host by host (sorted order): each host's full log, then
		// close it immediately, draining between hosts.
		for _, h := range hosts {
			for _, a := range res.PerHost[h] {
				if err := sess.Push(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := sess.CloseHost(h); err != nil {
				t.Fatal(err)
			}
			sess.Drain()
		}
		return sess.Close()
	}
	seq := run(1)
	if len(seq.Graphs) == 0 {
		t.Fatal("no graphs")
	}
	assertSameGraphs(t, "interleaved close", seq, run(4))
}

// TestSessionPaperExactNoiseRunsSharded: the exact Fig. 5 ablation is a
// normal streaming-engine session — Workers > 1 shards it (channel
// closure keeps every matching SEND co-sharded with its RECEIVE, so the
// per-shard predicate equals the global answer), heartbeats are accepted
// and validated like any other mode's, and the offline exact replay
// shards too.
func TestSessionPaperExactNoiseRunsSharded(t *testing.T) {
	res := fastRun(t, 20, nil)

	opts := options(res)
	opts.PaperExactNoise = true
	seqSess, err := NewSession(opts, hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	seq := pushReplay(t, seqSess, res, 256)
	if len(seq.Graphs) == 0 {
		t.Fatal("sequential exact session produced no graphs")
	}

	opts.Workers = 4
	parSess, err := NewSession(opts, hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	par := pushReplay(t, parSess, res, 256)
	assertSameGraphs(t, "paperexact workers=4", seq, par)
	if par.Shards == 0 {
		t.Fatal("exact session with Workers=4 reported no shards")
	}

	hb, err := NewSession(opts, hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.Heartbeat(hostsOf(res)[0], time.Second); err != nil {
		t.Fatalf("exact session rejected a heartbeat: %v", err)
	}
	if err := hb.Heartbeat("nosuch", time.Second); err == nil {
		t.Fatal("exact session accepted a heartbeat for an undeclared host")
	}
	hb.Close()

	batch, err := New(opts).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Shards == 0 {
		t.Fatal("offline exact replay reported no shards")
	}
	assertSameGraphs(t, "paperexact offline", seq, batch)
}

// BenchmarkSessionSharded measures the push-mode pipeline end to end
// (push + drain + close) for the sequential and sharded sessions.
func BenchmarkSessionSharded(b *testing.B) {
	res := rubisTrace(b, 200, 0.05, 0)
	ordered := make([]*activity.Activity, len(res.Trace))
	copy(ordered, res.Trace)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var hosts []string
			for h := range res.PerHost {
				hosts = append(hosts, h)
			}
			for i := 0; i < b.N; i++ {
				opts := Options{
					Window:     10 * time.Millisecond,
					EntryPorts: []int{rubis.EntryPort},
					IPToHost:   res.IPToHost,
					Workers:    workers,
				}
				sess, err := NewSession(opts, hosts)
				if err != nil {
					b.Fatal(err)
				}
				for j, a := range ordered {
					if err := sess.Push(a); err != nil {
						b.Fatal(err)
					}
					if j%512 == 0 {
						sess.Drain()
					}
				}
				sess.Close()
			}
		})
	}
}
