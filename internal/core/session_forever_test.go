package core

import (
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/rubis"
)

// foreverOpts is the continuous-mode fixture: two declared hosts, one of
// which (web2) never pushes — its stream staying open is exactly the
// deployment the close-driven seal rule starves.
func foreverOpts(workers int, sealAfter time.Duration) Options {
	return Options{
		Window:     time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "web1", "10.0.0.2": "web2"},
		Workers:    workers,
		SealAfter:  sealAfter,
	}
}

// pushRequest pushes one complete two-record request (BEGIN then END after
// classification) on web1 at the given base time, on its own connection.
func pushRequest(t *testing.T, sess *Session, k int, base time.Duration) {
	t.Helper()
	port := 40000 + k%20000
	id := int64(2 * k)
	if err := sess.Push(mkRaw(id, activity.Receive, base, "web1", "httpd", 1, "10.9.9.9", "10.0.0.1", port, 80)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(mkRaw(id+1, activity.Send, base+time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, port)); err != nil {
		t.Fatal(err)
	}
}

// TestSessionForeverOpenContinuousEmission is the SealAfter acceptance
// test: a session whose agents never restart (CloseHost is never called
// before the very end) must still emit CAGs continuously once components
// fall behind the activity-time horizon, with the incremental partition's
// interning maps bounded by recently-active components instead of every
// connection ever seen.
func TestSessionForeverOpenContinuousEmission(t *testing.T) {
	const (
		sealAfter = 30 * time.Millisecond
		spacing   = 10 * time.Millisecond
		requests  = 500
	)
	sess, err := NewSession(foreverOpts(4, sealAfter), []string{"web1", "web2"})
	if err != nil {
		t.Fatal(err)
	}

	firstEmit := -1
	peakDirs, peakEpochs := 0, 0
	for k := 0; k < requests; k++ {
		pushRequest(t, sess, k, time.Duration(k)*spacing)
		sess.Drain()
		if firstEmit < 0 && len(sess.Graphs()) > 0 {
			firstEmit = k
		}
		if d, e, _ := sess.inc.Sizes(); true {
			if d > peakDirs {
				peakDirs = d
			}
			if e > peakEpochs {
				peakEpochs = e
			}
		}
	}
	if firstEmit < 0 {
		t.Fatal("forever-open session emitted nothing before Close")
	}
	// Emission must begin as soon as the horizon has passed the first
	// request — a handful of spacings in, not hundreds.
	if firstEmit > 10 {
		t.Fatalf("first emission only after request %d (horizon is %v, spacing %v)", firstEmit, sealAfter, spacing)
	}
	mid := len(sess.Graphs())
	if mid < requests*3/4 {
		t.Fatalf("only %d/%d graphs released while all streams were open", mid, requests)
	}
	// Bounded memory: each request interns 2 directed channels and 1
	// epoch; only components inside ~2×SealAfter (seal horizon + prune
	// lag, ≈ 6 requests here) plus the in-flight few may be resident.
	// Without pruning the peak would be ~2×requests = 1000 entries.
	if peakDirs > 60 || peakEpochs > 30 {
		t.Fatalf("interning maps not bounded: peak dirs=%d epochs=%d (500 requests pushed)", peakDirs, peakEpochs)
	}

	// The released stream must be END-ordered (the watermark guarantee
	// survives forced sealing when the liveness bound holds).
	graphs := sess.Graphs()
	for i := 1; i < len(graphs); i++ {
		if graphs[i].End().Timestamp < graphs[i-1].End().Timestamp {
			t.Fatalf("emitted stream regressed at %d", i)
		}
	}

	out := sess.Close()
	if len(out.Graphs) != requests {
		t.Fatalf("final graphs = %d, want %d", len(out.Graphs), requests)
	}
	if out.ForcedSeals < requests*3/4 {
		t.Fatalf("ForcedSeals = %d, want most of %d components", out.ForcedSeals, requests)
	}
	if out.LateLinks != 0 {
		t.Fatalf("LateLinks = %d on a well-behaved stream", out.LateLinks)
	}
}

// TestSessionForeverOpenDeterminism: continuous mode measures staleness
// against pushed timestamps, never wall clock, so replaying the same
// push/drain sequence reproduces the identical emitted stream.
func TestSessionForeverOpenDeterminism(t *testing.T) {
	run := func() []*cag.Graph {
		sess, err := NewSession(foreverOpts(4, 20*time.Millisecond), []string{"web1", "web2"})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 120; k++ {
			pushRequest(t, sess, k, time.Duration(k)*5*time.Millisecond)
			if k%3 == 0 {
				sess.Drain()
			}
		}
		return sess.Close().Graphs
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no graphs")
	}
	for i := 0; i < 3; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d: %d graphs, want %d", i, len(again), len(first))
		}
		for j := range first {
			if fingerprint(first[j]) != fingerprint(again[j]) {
				t.Fatalf("run %d: graph %d differs", i, j)
			}
		}
	}
}

// TestSessionSealAfterZeroUnchanged: without the opt-in the session stays
// strictly close-driven — the same forever-open stream emits nothing
// until its streams close, and the final output matches the continuous
// session's graphs (well-separated requests lose nothing to forced
// seals).
func TestSessionSealAfterZeroUnchanged(t *testing.T) {
	feed := func(sealAfter time.Duration) (*Session, int) {
		sess, err := NewSession(foreverOpts(4, sealAfter), []string{"web1", "web2"})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 60; k++ {
			pushRequest(t, sess, k, time.Duration(k)*10*time.Millisecond)
			sess.Drain()
		}
		return sess, len(sess.Graphs())
	}
	closeDriven, midClose := feed(0)
	continuous, midCont := feed(25 * time.Millisecond)
	if midClose != 0 {
		t.Fatalf("SealAfter=0 emitted %d graphs with every stream open", midClose)
	}
	if midCont == 0 {
		t.Fatal("SealAfter>0 emitted nothing with every stream open")
	}
	a, b := closeDriven.Close(), continuous.Close()
	if a.ForcedSeals != 0 || a.LateLinks != 0 {
		t.Fatalf("close-driven session counted forced seals/late links: %+v", a)
	}
	if len(a.Graphs) != len(b.Graphs) {
		t.Fatalf("graph counts diverged: close-driven %d vs continuous %d", len(a.Graphs), len(b.Graphs))
	}
	for i := range a.Graphs {
		if fingerprint(a.Graphs[i]) != fingerprint(b.Graphs[i]) {
			t.Fatalf("graph %d differs between close-driven and continuous mode", i)
		}
	}
}

// TestSessionSealAfterAtEveryPoolSize: the streaming engine supports
// seal horizons at any Workers value — Workers=1 is just the sequential
// configuration of the same engine, so a single-threaded forever-open
// deployment emits continuously too. PaperExactNoise included: the
// shard-aware Fig. 5 predicate made exact mode a normal streaming
// session, so a forever-open exact deployment emits continuously as
// well.
func TestSessionSealAfterAtEveryPoolSize(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		sess, err := NewSession(foreverOpts(workers, 30*time.Millisecond), []string{"web1", "web2"})
		if err != nil {
			t.Fatalf("workers=%d: SealAfter rejected: %v", workers, err)
		}
		for k := 0; k < 30; k++ {
			pushRequest(t, sess, k, time.Duration(k)*10*time.Millisecond)
			sess.Drain()
		}
		if len(sess.Graphs()) == 0 {
			t.Fatalf("workers=%d: forever-open session emitted nothing before Close", workers)
		}
		out := sess.Close()
		if len(out.Graphs) != 30 {
			t.Fatalf("workers=%d: final graphs = %d, want 30", workers, len(out.Graphs))
		}
		if out.ForcedSeals == 0 {
			t.Fatalf("workers=%d: no forced seals", workers)
		}
	}
	exact := foreverOpts(4, 30*time.Millisecond)
	exact.PaperExactNoise = true
	sess, err := NewSession(exact, []string{"web1", "web2"})
	if err != nil {
		t.Fatalf("SealAfter with PaperExactNoise rejected: %v", err)
	}
	for k := 0; k < 30; k++ {
		pushRequest(t, sess, k, time.Duration(k)*10*time.Millisecond)
		sess.Drain()
	}
	if len(sess.Graphs()) == 0 {
		t.Fatal("forever-open exact session emitted nothing before Close")
	}
	out := sess.Close()
	if len(out.Graphs) != 30 {
		t.Fatalf("exact session final graphs = %d, want 30", len(out.Graphs))
	}
	if out.ForcedSeals == 0 {
		t.Fatal("exact session recorded no forced seals")
	}
}

// TestSessionIdleThreadReuseNotLateLink: a thread idling past the
// horizon and then serving a NEW request on a NEW connection is normal
// operation — its old epoch's component force-seals, but the fresh
// request must not inflate LateLinks (only a sealed component's own
// connections or mid-request continuations count).
func TestSessionIdleThreadReuseNotLateLink(t *testing.T) {
	sess, err := NewSession(foreverOpts(2, 20*time.Millisecond), []string{"web1", "web2"})
	if err != nil {
		t.Fatal(err)
	}
	// Same TID 1 for every request (pushRequest reuses it), long idle
	// gaps between requests so each one's component is force-sealed well
	// before the thread comes back.
	for k := 0; k < 10; k++ {
		pushRequest(t, sess, k, time.Duration(k)*100*time.Millisecond)
		sess.Drain()
	}
	out := sess.Close()
	if len(out.Graphs) != 10 {
		t.Fatalf("graphs = %d, want 10", len(out.Graphs))
	}
	if out.ForcedSeals == 0 {
		t.Fatal("idle gaps produced no forced seals")
	}
	if out.LateLinks != 0 {
		t.Fatalf("LateLinks = %d; idle-thread reuse miscounted as stragglers", out.LateLinks)
	}
}

// TestSessionForcedSealLateLink: an activity violating the
// sender-liveness bound — arriving for a component already force-sealed —
// must be counted as a late link and land on a fresh component, never
// touch the dispatched shard's buffers, and still leave the session
// usable.
func TestSessionForcedSealLateLink(t *testing.T) {
	sess, err := NewSession(foreverOpts(2, 20*time.Millisecond), []string{"web1", "web2"})
	if err != nil {
		t.Fatal(err)
	}
	// Request 0 on connection :40000, then enough traffic to push the
	// activity clock one horizon past it: the push at 30 ms force-seals
	// request 0, and Drain correlates and releases it.
	pushRequest(t, sess, 0, 0)
	for k := 1; k < 8; k++ {
		pushRequest(t, sess, k, time.Duration(k)*10*time.Millisecond)
	}
	sess.Drain()
	if len(sess.Graphs()) == 0 {
		t.Fatal("setup: nothing force-sealed")
	}
	// A straggler END on request 0's connection, at the current clock
	// (per-host order must not regress).
	late := mkRaw(999, activity.Send, 71*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, 40000)
	if err := sess.Push(late); err != nil {
		t.Fatal(err)
	}
	out := sess.Close()
	if out.LateLinks == 0 {
		t.Fatal("straggler to a force-sealed component not counted as a late link")
	}
	if out.ForcedSeals == 0 {
		t.Fatal("no forced seals recorded")
	}
	// The 8 intact requests still produce their graphs; the straggler is
	// a lone END on a fresh component and yields none.
	if len(out.Graphs) != 8 {
		t.Fatalf("graphs = %d, want 8", len(out.Graphs))
	}
}

// TestSessionContinuousReplayEmitsBeforeClose is replay-cont scaled down:
// a noise trace pushed in merged timestamp order into a session with
// SealAfter=1s and two workers, drained every 256 pushes. Noise
// connections never idle and carry no BEGIN, so they must not hold the
// watermark: nearly every graph reaches the sink before Close. The
// released stream must equal, graph for graph, a close-only run of the
// same session.
func TestSessionContinuousReplayEmitsBeforeClose(t *testing.T) {
	cfg := rubis.DefaultConfig(120)
	cfg.Scale = 0.05
	cfg.Noise = true
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := arrivalOrder(res.Trace)
	run := func(drainEvery int) (stream []string, beforeClose int) {
		opts := options(res)
		opts.SealAfter = time.Second
		opts.Workers = 2
		opts.Sinks = []GraphSink{GraphSinkFunc(func(g *cag.Graph) { stream = append(stream, fingerprint(g)) })}
		sess, err := NewSession(opts, hostsOf(res))
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range trace {
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
			if drainEvery > 0 && (i+1)%drainEvery == 0 {
				sess.Drain()
			}
		}
		beforeClose = len(stream)
		sess.Close()
		return stream, beforeClose
	}
	got, before := run(256)
	want, _ := run(0)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("continuous run emitted %d graphs, close-only run %d", len(got), len(want))
	}
	frac := float64(before) / float64(len(got))
	t.Logf("%d of %d graphs (%.3f) reached the sink before Close", before, len(got), frac)
	if frac < 0.95 {
		t.Fatalf("only %d of %d graphs (%.3f) reached the sink before Close, want >= 0.95", before, len(got), frac)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("graph %d differs from the close-only run:\n%s\nwant:\n%s", i, got[i], want[i])
		}
	}
}
