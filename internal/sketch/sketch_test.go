package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// zipfStream draws n keys from a Zipf distribution over vocab distinct
// items — the skewed shape pattern-signature streams actually have.
func zipfStream(seed int64, n, vocab int, s float64) []string {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(vocab-1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%04d", z.Uint64())
	}
	return out
}

func uniformStream(seed int64, n, vocab int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("key-%04d", rng.Intn(vocab))
	}
	return out
}

// TestTopKErrorBounds asserts the space-saving guarantees on randomized
// streams: for every tracked item Count-Err ≤ true ≤ Count, every error
// bound ≤ N/k, and every item with true count > N/k is tracked.
func TestTopKErrorBounds(t *testing.T) {
	cases := []struct {
		name   string
		stream []string
		k      int
	}{
		{"zipf-seed1", zipfStream(1, 20000, 500, 1.3), 32},
		{"zipf-seed2", zipfStream(2, 20000, 500, 1.1), 64},
		{"zipf-tiny-k", zipfStream(3, 10000, 200, 1.5), 8},
		{"uniform-seed4", uniformStream(4, 20000, 100), 64},
		{"uniform-overload", uniformStream(5, 5000, 1000), 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			truth := make(map[string]uint64)
			sk := NewTopK(tc.k)
			for _, key := range tc.stream {
				truth[key]++
				sk.Observe(key)
			}
			n := uint64(len(tc.stream))
			if sk.n != n {
				t.Fatalf("N = %d, want %d", sk.n, n)
			}
			if sk.Len() > tc.k {
				t.Fatalf("tracked %d items, capacity %d", sk.Len(), tc.k)
			}
			bound := n / uint64(tc.k)
			for _, c := range sk.Items() {
				tru := truth[c.Key]
				if c.Count < tru {
					t.Fatalf("%s: estimate %d underestimates true %d", c.Key, c.Count, tru)
				}
				if c.Count-c.Err > tru {
					t.Fatalf("%s: lower bound %d exceeds true %d", c.Key, c.Count-c.Err, tru)
				}
				if c.Err > bound {
					t.Fatalf("%s: err bound %d exceeds N/k = %d", c.Key, c.Err, bound)
				}
			}
			for key, tru := range truth {
				if tru > bound {
					if _, tracked := sk.items[key]; !tracked {
						t.Fatalf("heavy hitter %s (true %d > N/k %d) not tracked", key, tru, bound)
					}
				}
			}
		})
	}
}

// TestTopKDeterministic: identical streams produce identical rankings
// regardless of map iteration order.
func TestTopKDeterministic(t *testing.T) {
	stream := zipfStream(7, 5000, 300, 1.2)
	a, b := NewTopK(16), NewTopK(16)
	for _, k := range stream {
		a.Observe(k)
		b.Observe(k)
	}
	ia, ib := a.Items(), b.Items()
	if len(ia) != len(ib) {
		t.Fatalf("lengths differ: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, ia[i], ib[i])
		}
	}
}

func TestTopKSmall(t *testing.T) {
	sk := NewTopK(2)
	sk.Observe("a")
	sk.Observe("a")
	sk.Observe("b")
	if ev, ok := sk.Observe("c"); !ok || ev != "b" {
		t.Fatalf("expected eviction of b, got %q ok=%v", ev, ok)
	}
	it, tracked := sk.items["c"]
	if !tracked || it.count != 2 || it.err != 1 {
		t.Fatalf("c = %+v (tracked %v), want count 2, err 1", it, tracked)
	}
	if _, tracked := sk.items["b"]; tracked {
		t.Fatal("evicted key still tracked")
	}
	sk.Reset()
	if sk.Len() != 0 || sk.n != 0 {
		t.Fatalf("reset left Len=%d N=%d", sk.Len(), sk.n)
	}
}

// TestQuantileRankError asserts the GK guarantee against exact sorted
// ranks: for every queried phi the returned value's true rank is within
// ε·n (+1 for boundary discreteness) of phi·n.
func TestQuantileRankError(t *testing.T) {
	type gen struct {
		name string
		draw func(r *rand.Rand) float64
	}
	gens := []gen{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 1000 }},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * 50 }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) }},
	}
	phis := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	for _, g := range gens {
		for _, eps := range []float64{0.01, 0.05} {
			t.Run(fmt.Sprintf("%s-eps%.2f", g.name, eps), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed))
					const n = 20000
					vals := make([]float64, n)
					q := NewQuantile(eps)
					for i := range vals {
						vals[i] = g.draw(rng)
						q.Observe(vals[i])
					}
					sort.Float64s(vals)
					for _, phi := range phis {
						got := q.Query(phi)
						// True rank band of got in the sorted data.
						lo := sort.SearchFloat64s(vals, got)
						hi := sort.Search(n, func(i int) bool { return vals[i] > got })
						target := phi * n
						slack := eps*n + 1
						if float64(hi) < target-slack || float64(lo) > target+slack {
							t.Fatalf("seed %d phi=%.2f: value %g has rank [%d,%d], target %.0f ± %.0f",
								seed, phi, got, lo, hi, target, slack)
						}
					}
				}
			})
		}
	}
}

// TestQuantileBoundedSize: the summary stays within the GK space bound
// O((1/ε)·log(ε·n)) — the property that makes the sketched Monitor's
// memory fixed.
func TestQuantileBoundedSize(t *testing.T) {
	for _, eps := range []float64{0.01, 0.05} {
		rng := rand.New(rand.NewSource(42))
		q := NewQuantile(eps)
		const n = 200000
		for i := 0; i < n; i++ {
			q.Observe(rng.Float64())
		}
		// The classic bound is (11/(2ε))·log2(2εn); allow a constant
		// slop for the insert-batch between compressions.
		bound := int(11.0/(2.0*eps)*math.Log2(2.0*eps*float64(n))) + int(1.0/(2.0*eps)) + 8
		if q.Size() > bound {
			t.Fatalf("eps=%.2f: %d tuples after %d observations, bound %d", eps, q.Size(), n, bound)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	q := NewQuantile(0)
	if q.eps != 0.01 {
		t.Fatalf("default eps = %g", q.eps)
	}
	if q.Query(0.5) != 0 {
		t.Fatal("empty sketch should query 0")
	}
	q.Observe(7)
	for _, phi := range []float64{-1, 0, 0.5, 1, 2} {
		if got := q.Query(phi); got != 7 {
			t.Fatalf("single-value sketch Query(%g) = %g", phi, got)
		}
	}
	// Monotone stream: min and max are exact.
	q2 := NewQuantile(0.01)
	for i := 1; i <= 1000; i++ {
		q2.Observe(float64(i))
	}
	if q2.Query(0) != 1 {
		t.Fatalf("min = %g, want 1", q2.Query(0))
	}
	if q2.Query(1) != 1000 {
		t.Fatalf("max = %g, want 1000", q2.Query(1))
	}
	if q2.N() != 1000 {
		t.Fatalf("N = %d", q2.N())
	}
}
