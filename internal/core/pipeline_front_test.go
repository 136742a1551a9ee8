package core

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/rubis"
)

// TestSessionPoolSettlesAndStops pins the worker pool's two
// synchronization points: settle, the barrier every Drain and Close waits
// on, and the pool's shutdown at Close. A continuous session is fed with a
// Drain every 64 pushes, so settle runs hundreds of times against a pool
// that is still correlating; then every host closes and one Drain must
// leave nothing pending. The graphs must equal the offline correlation, a
// second Close must return the same Result, and once the sessions are
// closed no pool goroutine may outlive them. A barrier that misses its
// wake-up hangs, so each session runs under a watchdog.
func TestSessionPoolSettlesAndStops(t *testing.T) {
	res := rubisTrace(t, 80, 0.02, 0)
	want := correlate(t, res, 1, ShardByFlow)
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
			o.pending = sess.Pending()
			o.first = sess.Close()
			o.second = sess.Close()
			done <- o
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: session did not finish within 30s (a settle barrier missed its wake-up)", workers)
		}
		if o.err != nil {
			t.Fatalf("workers=%d: %v", workers, o.err)
		}
		if o.pending != 0 {
			t.Fatalf("workers=%d: %d activities pending after every host closed and drained", workers, o.pending)
		}
		if o.first.ForcedSeals == 0 {
			t.Fatalf("workers=%d: no forced seals; the Drain cadence never settled a busy pool", workers)
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

// TestEarlyCloseSafeGate pins the replay early-close precondition: safe
// exactly when every record's pushing host resolves one of its own
// connection endpoints through IPToHost. The rubis generator maps every
// traced host's address, so its traces qualify; dropping one host's
// mapping (or all mappings) must disqualify the trace and fall back to
// the close-at-end replay.
func TestEarlyCloseSafeGate(t *testing.T) {
	res := rubisTrace(t, 40, 0.02, 2)
	set := map[string]struct{}{}
	for _, a := range res.Trace {
		set[a.Ctx.Host] = struct{}{}
	}
	traceHosts := make([]string, 0, len(set))
	for h := range set {
		traceHosts = append(traceHosts, h)
	}
	sort.Strings(traceHosts)
	base := Options{Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost}
	s := newStreamSession(base, traceHosts)
	if !s.earlyCloseSafe(res.Trace) {
		t.Fatal("fully resolved rubis trace should allow early close")
	}
	s.Close()

	// Remove one traced host's address mapping: its records' own-side
	// endpoints stop resolving, so early close must be refused.
	partial := base
	partial.IPToHost = map[string]string{}
	var dropped string
	for ip, h := range res.IPToHost {
		if dropped == "" || h == dropped {
			dropped = h
			continue
		}
		partial.IPToHost[ip] = h
	}
	s2 := newStreamSession(partial, traceHosts)
	if s2.earlyCloseSafe(res.Trace) {
		t.Fatalf("trace with host %q unmapped should refuse early close", dropped)
	}
	s2.Close()

	// No resolution at all: refuse outright.
	bare := base
	bare.IPToHost = nil
	s3 := newStreamSession(bare, traceHosts)
	if s3.earlyCloseSafe(res.Trace) {
		t.Fatal("trace without IPToHost should refuse early close")
	}
	s3.Close()
}

// TestReplayEarlyCloseMatchesLateClose replays the same fully resolved
// trace through CorrelateTrace (which closes each host at its last
// record to overlap partition with correlation) and through a session
// that closes every host only at the end, and demands byte-identical
// graphs — the early closes must not change one seal grouping.
func TestReplayEarlyCloseMatchesLateClose(t *testing.T) {
	res := rubisTrace(t, 120, 0.05, 4)
	for _, workers := range []int{1, 4} {
		early := correlate(t, res, workers, ShardByFlow)
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
