package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
)

func ingestOpts(sinks ...GraphSink) Options {
	return Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "web1", "10.0.0.2": "db1"},
		Sinks:      sinks,
	}
}

// singleHostRequest emits one two-record request on web1 with the given
// request index; timestamps and ports are spread so requests partition
// into independent components.
func singleHostRequest(host string, r int) []*activity.Activity {
	base := time.Duration(r) * 10 * time.Millisecond
	port := 20000 + r
	id := int64(r * 2)
	return []*activity.Activity{
		mkRaw(id, activity.Receive, base+time.Millisecond, host, "httpd", 1, "10.9.9.9", "10.0.0.1", port, 80),
		mkRaw(id+1, activity.Send, base+2*time.Millisecond, host, "httpd", 1, "10.0.0.1", "10.9.9.9", 80, port),
	}
}

// TestIngestConcurrentProducers: many goroutines feed one session
// through the serialized front; every request comes out, CloseHost is a
// true barrier, and the delivery hook observes each applied op.
func TestIngestConcurrentProducers(t *testing.T) {
	const hosts, perHost = 4, 50
	names := make([]string, hosts)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	var emitted int
	type obs struct {
		host string
		ts   time.Duration
	}
	var applied []obs
	s, err := NewSession(Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "w0"},
		Sinks:      []GraphSink{GraphSinkFunc(func(*cag.Graph) { emitted++ })},
	}, names)
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngest(s, IngestOptions{
		Buffer:     8,
		DrainEvery: 16,
		OnApplied:  func(h string, ts time.Duration) { applied = append(applied, obs{h, ts}) },
	})
	var wg sync.WaitGroup
	for _, h := range names {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perHost; r++ {
				for _, a := range singleHostRequest(h, r) {
					if err := in.Push(a); err != nil {
						t.Errorf("%s: %v", h, err)
						return
					}
				}
			}
			last := time.Duration(perHost) * 10 * time.Millisecond
			if err := in.Heartbeat(h, last); err != nil {
				t.Errorf("%s heartbeat: %v", h, err)
				return
			}
			if err := in.CloseHost(h); err != nil {
				t.Errorf("%s close: %v", h, err)
			}
		}()
	}
	wg.Wait()
	if err := in.Sync(); err != nil {
		t.Fatal(err)
	}
	res := in.Close()
	if res == nil {
		t.Fatal("no final result")
	}
	if want := hosts * perHost; emitted != want {
		t.Fatalf("emitted %d graphs, want %d", emitted, want)
	}
	if want := hosts * (perHost*2 + 1); len(applied) != want {
		t.Fatalf("OnApplied saw %d ops, want %d", len(applied), want)
	}
	// Close is idempotent and later ops fail fast.
	if res2 := in.Close(); res2 != res {
		t.Fatal("second Close returned a different result")
	}
	if err := in.Push(singleHostRequest("w0", 0)[0]); !errors.Is(err, ErrIngestClosed) {
		t.Fatalf("push after close: %v", err)
	}
	if err := in.Sync(); !errors.Is(err, ErrIngestClosed) {
		t.Fatalf("sync after close: %v", err)
	}
}

// TestIngestStickyHostError: a timestamp regression on one host surfaces
// to that host's later calls and leaves other hosts flowing.
func TestIngestStickyHostError(t *testing.T) {
	s, err := NewSession(ingestOpts(), []string{"web1", "db1"})
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngest(s, IngestOptions{})
	good := singleHostRequest("web1", 1)
	for _, a := range good {
		if err := in.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	// Regressing timestamp: rejected by the session, recorded sticky.
	bad := singleHostRequest("web1", 0)[0]
	if err := in.Push(bad); err != nil {
		t.Fatalf("async push reported immediately: %v", err)
	}
	if err := in.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := in.Push(good[0]); err == nil {
		t.Fatal("sticky error not surfaced to web1")
	} else if err2 := in.Heartbeat("web1", time.Second); err2 == nil {
		t.Fatal("sticky error not surfaced to web1 heartbeat")
	} else if err3 := in.CloseHost("web1"); err3 == nil {
		t.Fatal("sticky error not surfaced to web1 close")
	}
	// db1 is unaffected.
	if err := in.Heartbeat("db1", time.Second); err != nil {
		t.Fatalf("db1 caught web1's error: %v", err)
	}
	if err := in.CloseHost("db1"); err != nil {
		t.Fatalf("db1 close: %v", err)
	}
	in.Close()
}

// TestIngestUnknownHost: ops for undeclared hosts error via the sticky
// path (Heartbeat/CloseHost synchronously or on the next call).
func TestIngestUnknownHost(t *testing.T) {
	s, err := NewSession(ingestOpts(), []string{"web1"})
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngest(s, IngestOptions{})
	defer in.Close()
	if err := in.CloseHost("ghost"); err == nil {
		t.Fatal("CloseHost for undeclared host succeeded")
	}
	if err := in.Heartbeat("ghost", time.Second); err == nil {
		t.Fatal("sticky error not reused for the host")
	}
}

// TestIngestWallClockFlush: with a tiny FlushInterval and a huge
// DrainEvery, decidable graphs still emerge without further input — the
// wall-clock drain is the only thing that can release them.
func TestIngestWallClockFlush(t *testing.T) {
	emitted := make(chan struct{}, 16)
	opts := ingestOpts(GraphSinkFunc(func(*cag.Graph) { emitted <- struct{}{} }))
	opts.SealAfter = 5 * time.Millisecond
	s, err := NewSession(opts, []string{"web1"})
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngest(s, IngestOptions{DrainEvery: 1 << 20, FlushInterval: 2 * time.Millisecond})
	// Request 0 completes, then request 5's opening record advances the
	// activity clock far past the horizon. No drain is op-driven
	// (DrainEvery is huge), so only the flush timer can seal and emit.
	for _, a := range singleHostRequest("web1", 0) {
		if err := in.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Push(singleHostRequest("web1", 5)[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-emitted:
	case <-time.After(10 * time.Second):
		t.Fatal("wall-clock flush never released the sealed graph")
	}
	in.Close()
}
