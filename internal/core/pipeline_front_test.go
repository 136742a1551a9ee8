package core

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/rubis"
)

// TestSessionPoolSettlesAndStops pins the session's barrier: every Drain
// and Close correlates the components sealed since the last one, stage 1
// together with up to Workers−1 helper goroutines started for that batch,
// and waits for the helpers before absorbing the results. A continuous
// session is fed with a Drain every 64 pushes, so the barrier runs
// hundreds of times with forced seals to correlate; then every host
// closes and one Drain must leave nothing pending. The graphs must equal
// the offline correlation, a second Close must return the same Result,
// and once the sessions are closed no helper goroutine may outlive them.
// A barrier that misses a helper's finish hangs, so each session runs
// under a watchdog.
func TestSessionPoolSettlesAndStops(t *testing.T) {
	res := rubisTrace(t, 80, 0.02, 0)
	want := correlate(t, res, 1)
	trace := arrivalOrder(res.Trace)
	hosts := hostsOf(res)
	base := runtime.NumGoroutine()

	type outcome struct {
		first, second *Result
		pending       int
		err           error
	}
	for _, workers := range []int{1, 2, 4} {
		done := make(chan outcome, 1)
		go func() {
			opts := options(res)
			opts.SealAfter = time.Second
			opts.Workers = workers
			sess, err := NewSession(opts, hosts)
			if err != nil {
				done <- outcome{err: err}
				return
			}
			for i, a := range trace {
				if err := sess.Push(a); err != nil {
					done <- outcome{err: err}
					return
				}
				if (i+1)%64 == 0 {
					sess.Drain()
				}
			}
			for _, h := range hosts {
				if err := sess.CloseHost(h); err != nil {
					done <- outcome{err: err}
					return
				}
			}
			sess.Drain()
			var o outcome
			o.pending = sess.pendingActs
			o.first = sess.Close()
			o.second = sess.Close()
			done <- o
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: session did not finish within 30s (a barrier missed a helper's finish)", workers)
		}
		if o.err != nil {
			t.Fatalf("workers=%d: %v", workers, o.err)
		}
		if o.pending != 0 {
			t.Fatalf("workers=%d: %d activities pending after every host closed and drained", workers, o.pending)
		}
		if o.first.ForcedSeals == 0 {
			t.Fatalf("workers=%d: no forced seals; the Drain cadence never had a batch to correlate", workers)
		}
		if o.second != o.first {
			t.Fatalf("workers=%d: second Close returned a different *Result", workers)
		}
		assertSameGraphs(t, fmt.Sprintf("workers=%d drained session vs offline", workers), want, o.first)
	}

	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sessions closed, %d before they opened", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSequentialSessionStartsNoGoroutine pins that Workers 0 and 1 are
// literally sequential: stage 1 correlates every sealed component itself
// at the barrier, so the goroutine count never rises above its baseline
// across NewSession, pushes, Drain, CloseHost and Close, close-driven or
// with a seal horizon.
func TestSequentialSessionStartsNoGoroutine(t *testing.T) {
	res := rubisTrace(t, 40, 0.02, 2)
	trace := arrivalOrder(res.Trace)
	hosts := hostsOf(res)
	base := runtime.NumGoroutine()
	check := func(label string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines, %d before the session opened", label, n, base)
		}
	}
	for _, workers := range []int{0, 1} {
		for _, sealAfter := range []time.Duration{0, time.Second} {
			label := fmt.Sprintf("workers=%d sealAfter=%v", workers, sealAfter)
			opts := options(res)
			opts.Workers = workers
			opts.SealAfter = sealAfter
			sess, err := NewSession(opts, hosts)
			if err != nil {
				t.Fatal(err)
			}
			check(label + " NewSession")
			for i, a := range trace {
				if err := sess.Push(a); err != nil {
					t.Fatal(err)
				}
				check(label + " Push")
				if (i+1)%64 == 0 {
					sess.Drain()
					check(label + " Drain")
				}
			}
			for _, h := range hosts {
				if err := sess.CloseHost(h); err != nil {
					t.Fatal(err)
				}
				check(label + " CloseHost")
			}
			r := sess.Close()
			check(label + " Close")
			if r.Shards < 2 || len(r.Graphs) == 0 {
				t.Fatalf("%s: %d shards, %d graphs: the barriers correlated nothing", label, r.Shards, len(r.Graphs))
			}
			if sealAfter > 0 && r.ForcedSeals == 0 {
				t.Fatalf("%s: no forced seals, so no Drain correlated a batch", label)
			}
		}
	}
}

// TestReplayEarlyCloseMatchesLateClose replays the same fully resolved
// trace through CorrelateTrace and through a session fed in trace order
// that closes every host only at Close, and demands byte-identical
// graphs. (The replay once closed each host at its last record; the
// name is kept from then.)
func TestReplayEarlyCloseMatchesLateClose(t *testing.T) {
	res := rubisTrace(t, 120, 0.05, 4)
	for _, workers := range []int{1, 4} {
		early := correlate(t, res, workers)
		hosts := make([]string, 0, len(res.PerHost))
		for h := range res.PerHost {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		sess, err := NewSession(Options{
			Window:     10 * time.Millisecond,
			EntryPorts: []int{rubis.EntryPort},
			IPToHost:   res.IPToHost,
			Workers:    workers,
		}, hosts)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Trace {
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
		}
		late := sess.Close()
		assertSameGraphs(t, "early-close replay vs close-at-end session", early, late)
	}
}
