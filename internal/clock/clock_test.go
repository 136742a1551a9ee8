package clock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLocalAppliesOffset(t *testing.T) {
	c := New(WithOffset(250 * time.Millisecond))
	got := c.Local(time.Second)
	if got != time.Second+250*time.Millisecond {
		t.Fatalf("Local = %v, want 1.25s", got)
	}
}

func TestLocalNegativeOffset(t *testing.T) {
	c := New(WithOffset(-100 * time.Millisecond))
	got := c.Local(time.Second)
	if got != 900*time.Millisecond {
		t.Fatalf("Local = %v, want 900ms", got)
	}
}

func TestDrift(t *testing.T) {
	c := New(WithDriftPPM(100)) // gains 100µs per second
	got := c.Local(10 * time.Second)
	want := 10*time.Second + time.Millisecond
	if got != want {
		t.Fatalf("Local = %v, want %v", got, want)
	}
}

func TestQuantum(t *testing.T) {
	c := New(WithQuantum(time.Microsecond))
	got := c.Local(1500 * time.Nanosecond)
	if got != time.Microsecond {
		t.Fatalf("Local = %v, want 1µs", got)
	}
}

func TestMonotonic(t *testing.T) {
	// A strongly negative drift could reverse local time; the clock must
	// clamp to keep its own log ordered.
	c := New(WithDriftPPM(-2e6)) // pathological: loses 2s per second
	a := c.Local(time.Second)
	b := c.Local(2 * time.Second)
	if b < a {
		t.Fatalf("local time went backwards: %v then %v", a, b)
	}
}

func TestSkewScenarioMaxPairwise(t *testing.T) {
	s := SkewScenario{MaxSkew: 500 * time.Millisecond}
	const n = 8
	var lo, hi time.Duration
	for i := 0; i < n; i++ {
		off := s.ClockFor(i, n).offset
		if i == 0 || off < lo {
			lo = off
		}
		if i == 0 || off > hi {
			hi = off
		}
	}
	spread := hi - lo
	if spread > 500*time.Millisecond || spread < 400*time.Millisecond {
		t.Fatalf("pairwise skew spread = %v, want ~500ms", spread)
	}
}

func TestSkewScenarioSingleNode(t *testing.T) {
	s := SkewScenario{MaxSkew: time.Second}
	c := s.ClockFor(0, 1)
	if c.offset != 0 {
		t.Fatalf("single node offset = %v, want 0", c.offset)
	}
}

// Property: for any non-negative drift and offset, local time is monotone in
// global time.
func TestPropertyMonotone(t *testing.T) {
	f := func(offMs int16, driftPPM int16, samples []uint32) bool {
		c := New(WithOffset(time.Duration(offMs)*time.Millisecond), WithDriftPPM(float64(driftPPM)))
		// Feed sorted global times.
		var global time.Duration
		var prev time.Duration
		first := true
		for _, s := range samples {
			global += time.Duration(s % 1e6)
			l := c.Local(global)
			if !first && l < prev {
				return false
			}
			prev, first = l, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSkewScenarioDriftAlternates(t *testing.T) {
	s := SkewScenario{MaxSkew: 100 * time.Millisecond, DriftPPM: 50}
	c0 := s.ClockFor(0, 4)
	c1 := s.ClockFor(1, 4)
	if c0.driftPPM != 50 || c1.driftPPM != -50 {
		t.Fatalf("drift signs: %f %f", c0.driftPPM, c1.driftPPM)
	}
}

func TestQuantumAndOffsetCompose(t *testing.T) {
	c := New(WithOffset(time.Microsecond/2), WithQuantum(time.Microsecond))
	// 1.5µs raw -> quantised down to 1µs.
	if got := c.Local(time.Microsecond); got != time.Microsecond {
		t.Fatalf("Local = %v", got)
	}
}
