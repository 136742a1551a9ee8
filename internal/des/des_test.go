package des

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSimulatorOrdersEventsByTime(t *testing.T) {
	sim := New()
	var order []int
	sim.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	sim.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	sim.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	sim.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if sim.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", sim.Now())
	}
}

func TestSimulatorFIFOAtSameTime(t *testing.T) {
	sim := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		sim.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	sim.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: order[%d] = %d", i, order[i])
		}
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	sim := New()
	var hits []time.Duration
	sim.Schedule(time.Millisecond, func() {
		hits = append(hits, sim.Now())
		sim.Schedule(2*time.Millisecond, func() {
			hits = append(hits, sim.Now())
		})
	})
	sim.Run()
	if len(hits) != 2 || hits[0] != time.Millisecond || hits[1] != 3*time.Millisecond {
		t.Fatalf("hits = %v", hits)
	}
}

func TestCancel(t *testing.T) {
	sim := New()
	fired := false
	ev := sim.Schedule(time.Millisecond, func() { fired = true })
	ev.Cancel()
	sim.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.canceled {
		t.Fatal("Canceled() should be true")
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	sim := New()
	sim.Schedule(time.Second, func() {
		at := sim.Now()
		sim.Schedule(-5*time.Second, func() {
			if sim.Now() != at {
				t.Errorf("negative delay ran at %v, want %v", sim.Now(), at)
			}
		})
	})
	sim.Run()
}

func TestStepEmpty(t *testing.T) {
	sim := New()
	if sim.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func TestTokenPoolGrantsFIFO(t *testing.T) {
	sim := New()
	pool := NewTokenPool(sim, 2)
	var grants []int
	for i := 0; i < 5; i++ {
		i := i
		pool.Acquire(func() {
			grants = append(grants, i)
			sim.Schedule(10*time.Millisecond, pool.Release)
		})
	}
	sim.Run()
	for i := range grants {
		if grants[i] != i {
			t.Fatalf("grants = %v, want FIFO", grants)
		}
	}
	if pool.grants != 5 {
		t.Fatalf("Grants = %d, want 5", pool.grants)
	}
	if pool.peakInUse != 2 {
		t.Fatalf("PeakInUse = %d, want 2", pool.peakInUse)
	}
}

func TestTokenPoolWaitAccounting(t *testing.T) {
	sim := New()
	pool := NewTokenPool(sim, 1)
	pool.Acquire(func() {
		sim.Schedule(100*time.Millisecond, pool.Release)
	})
	var waited time.Duration
	start := sim.Now()
	pool.Acquire(func() {
		waited = sim.Now() - start
		pool.Release()
	})
	sim.Run()
	if waited != 100*time.Millisecond {
		t.Fatalf("waited %v, want 100ms", waited)
	}
	if mean := time.Duration(pool.totalWaitNs / int64(pool.grants)); mean != 50*time.Millisecond { // (0 + 100ms) / 2 grants
		t.Fatalf("MeanWait = %v, want 50ms", mean)
	}
}

func TestCPUSingleCoreSerializes(t *testing.T) {
	sim := New()
	cpu := NewCPU(sim, 1)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		cpu.Use(10*time.Millisecond, func() { done = append(done, sim.Now()) })
	}
	sim.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestCPUMultiCoreParallel(t *testing.T) {
	sim := New()
	cpu := NewCPU(sim, 2)
	var done []time.Duration
	for i := 0; i < 2; i++ {
		cpu.Use(10*time.Millisecond, func() { done = append(done, sim.Now()) })
	}
	sim.Run()
	for _, d := range done {
		if d != 10*time.Millisecond {
			t.Fatalf("parallel jobs should both finish at 10ms, got %v", done)
		}
	}
}

func TestCPUZeroDemand(t *testing.T) {
	sim := New()
	cpu := NewCPU(sim, 1)
	ran := false
	cpu.Use(0, func() { ran = true })
	sim.Run()
	if !ran {
		t.Fatal("zero-demand job never completed")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Exp(time.Second) != b.Exp(time.Second) {
			t.Fatal("same seed should give same stream")
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(1)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(time.Second)
	}
	mean := sum / n
	if mean < 950*time.Millisecond || mean > 1050*time.Millisecond {
		t.Fatalf("Exp mean = %v, want ~1s", mean)
	}
}

func TestRNGPickRespectsWeights(t *testing.T) {
	g := NewRNG(7)
	counts := make([]int, 3)
	weights := []float64{1, 0, 3}
	for i := 0; i < 10000; i++ {
		counts[g.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight ratio = %f, want ~3", ratio)
	}
}

func TestRNGPickDegenerate(t *testing.T) {
	g := NewRNG(7)
	if got := g.Pick([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero weights => 0, got %d", got)
	}
}

// Property: events always fire in non-decreasing time order, regardless of
// insertion order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		sim := New()
		var fired []time.Duration
		for _, d := range delaysMs {
			sim.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, sim.Now())
			})
		}
		sim.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delaysMs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a token pool never exceeds its capacity.
func TestPropertyTokenPoolCapacity(t *testing.T) {
	f := func(cap8 uint8, jobs uint8) bool {
		capacity := int(cap8%8) + 1
		sim := New()
		pool := NewTokenPool(sim, capacity)
		ok := true
		for i := 0; i < int(jobs); i++ {
			pool.Acquire(func() {
				if pool.inUse > capacity {
					ok = false
				}
				sim.Schedule(time.Millisecond, pool.Release)
			})
		}
		sim.Run()
		return ok && pool.inUse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
