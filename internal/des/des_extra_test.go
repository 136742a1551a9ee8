package des

import (
	"testing"
	"time"
)

func TestFiredCounts(t *testing.T) {
	sim := New()
	for i := 0; i < 5; i++ {
		sim.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	ev := sim.Schedule(10*time.Millisecond, func() {})
	ev.Cancel()
	sim.Run()
	if sim.fired != 5 {
		t.Fatalf("Fired = %d, want 5 (cancelled events don't fire)", sim.fired)
	}
	if len(sim.events) != 0 {
		t.Fatalf("Pending = %d", len(sim.events))
	}
}

func TestCancelDuringRun(t *testing.T) {
	sim := New()
	var second *Event
	fired := false
	sim.Schedule(time.Millisecond, func() { second.Cancel() })
	second = sim.Schedule(2*time.Millisecond, func() { fired = true })
	sim.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestEventAt(t *testing.T) {
	sim := New()
	ev := sim.Schedule(7*time.Millisecond, func() {})
	if ev.at != 7*time.Millisecond {
		t.Fatalf("At = %v", ev.at)
	}
}

func TestTokenPoolReleaseWithoutAcquire(t *testing.T) {
	sim := New()
	pool := NewTokenPool(sim, 1)
	pool.Release() // must not underflow
	if pool.inUse != 0 {
		t.Fatalf("InUse = %d", pool.inUse)
	}
	granted := false
	pool.Acquire(func() { granted = true })
	if !granted {
		t.Fatal("pool corrupted by spurious release")
	}
}

func TestTokenPoolWaitingCount(t *testing.T) {
	sim := New()
	pool := NewTokenPool(sim, 1)
	pool.Acquire(func() {})
	pool.Acquire(func() {})
	pool.Acquire(func() {})
	if pool.Waiting() != 2 {
		t.Fatalf("Waiting = %d", pool.Waiting())
	}
	pool.Release()
	sim.Run()
	if pool.Waiting() != 1 {
		t.Fatalf("Waiting after release = %d", pool.Waiting())
	}
}

func TestCPUQueueLen(t *testing.T) {
	sim := New()
	cpu := NewCPU(sim, 1)
	cpu.Use(time.Millisecond, func() {})
	cpu.Use(time.Millisecond, func() {})
	cpu.Use(time.Millisecond, func() {})
	if len(cpu.queue) != 2 {
		t.Fatalf("QueueLen = %d", len(cpu.queue))
	}
	sim.Run()
	if len(cpu.queue) != 0 || cpu.jobs != 3 {
		t.Fatalf("after run: queue=%d jobs=%d", len(cpu.queue), cpu.jobs)
	}
}

func TestCPUDefaultCores(t *testing.T) {
	sim := New()
	if NewCPU(sim, 0).cores != 1 {
		t.Fatal("zero cores should clamp to 1")
	}
	if NewTokenPool(sim, 0).capacity != 1 {
		t.Fatal("zero capacity should clamp to 1")
	}
}

func TestRNGUniformAndNormalBounds(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		n := g.Normal(time.Millisecond, 5*time.Millisecond)
		if n < 0 {
			t.Fatalf("Normal went negative: %v", n)
		}
	}
	if g.Exp(0) != 0 || g.Exp(-time.Second) != 0 {
		t.Fatal("non-positive Exp mean")
	}
}
