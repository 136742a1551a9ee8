package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramPercentilesAgainstExact(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(1))
	var sample []time.Duration
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(40*time.Millisecond))
		h.Add(d)
		sample = append(sample, d)
	}
	slices.Sort(sample)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Percentile(q)
		exact := sample[int(math.Ceil(q*float64(len(sample))))-1]
		lo := time.Duration(float64(exact) / 1.35)
		hi := time.Duration(float64(exact) * 1.35)
		if got < lo || got > hi {
			t.Fatalf("p%g = %v, exact %v (outside 35%% band)", q*100, got, exact)
		}
	}
	if h.N() != 20000 {
		t.Fatalf("N = %d", h.N())
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewLatencyHistogram()
	h.Add(10 * time.Millisecond)
	h.Add(30 * time.Millisecond)
	if h.Mean() != 20*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
}

func TestHistogramUnderflow(t *testing.T) {
	h := NewHistogram(time.Millisecond, 1.5, 10)
	h.Add(time.Microsecond) // under the first bucket
	if h.Percentile(0.5) != time.Millisecond {
		t.Fatalf("underflow percentile = %v", h.Percentile(0.5))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Percentile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should be zero")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	f := FitLinear(xs, ys)
	if math.Abs(f.A-1) > 1e-9 || math.Abs(f.B-2) > 1e-9 {
		t.Fatalf("fit = %v", f)
	}
	if f.R2 < 0.9999 {
		t.Fatalf("R2 = %f", f.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if f := FitLinear([]float64{1}, []float64{2}); f.N != 0 {
		t.Fatal("single point should return zero fit")
	}
	if f := FitLinear([]float64{2, 2}, []float64{1, 5}); f.B != 0 {
		t.Fatal("vertical data should not produce a slope")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Fatalf("flat sparkline %q", flat)
	}
}

// Property: histogram percentiles are monotone in q.
func TestPropertyHistogramMonotone(t *testing.T) {
	f := func(seed int64) bool {
		h := NewLatencyHistogram()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			h.Add(time.Duration(rng.Int63n(int64(10 * time.Second))))
		}
		prev := time.Duration(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			p := h.Percentile(q)
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
