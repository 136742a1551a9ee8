package sketch

import (
	"math"
	"sort"
)

// Quantile is a Greenwald–Khanna ε-approximate quantile sketch
// ("Space-Efficient Online Computation of Quantile Summaries",
// SIGMOD'01). After n observations, Query(phi) returns a value whose
// rank is within ε·n of ceil(phi·n), using O((1/ε)·log(ε·n)) tuples —
// bounded memory for unbounded streams.
type Quantile struct {
	eps     float64
	n       uint64
	tuples  []gkTuple
	pending int // observations since last compress
}

// gkTuple is one GK summary entry: value v covers a band of ranks; g is
// the gap rmin(v)-rmin(prev), delta is rmax(v)-rmin(v).
type gkTuple struct {
	v     float64
	g     uint64
	delta uint64
}

// NewQuantile returns a sketch with rank error ε·n. eps ≤ 0 defaults to
// 0.01 (1% rank error).
func NewQuantile(eps float64) *Quantile {
	if eps <= 0 {
		eps = 0.01
	}
	return &Quantile{eps: eps}
}

// Observe adds one value to the summary.
func (q *Quantile) Observe(v float64) {
	// Find insertion point: first tuple with value >= v.
	idx := sort.Search(len(q.tuples), func(i int) bool { return q.tuples[i].v >= v })
	var delta uint64
	if idx > 0 && idx < len(q.tuples) {
		delta = uint64(math.Floor(2 * q.eps * float64(q.n)))
	}
	q.tuples = append(q.tuples, gkTuple{})
	copy(q.tuples[idx+1:], q.tuples[idx:])
	q.tuples[idx] = gkTuple{v: v, g: 1, delta: delta}
	q.n++
	q.pending++
	if q.pending >= int(1.0/(2.0*q.eps))+1 {
		q.compress()
		q.pending = 0
	}
}

// compress merges adjacent tuples whose combined band stays within the
// 2εn capacity, keeping the summary at O((1/ε)·log(εn)) entries.
func (q *Quantile) compress() {
	if len(q.tuples) < 3 {
		return
	}
	capacity := uint64(math.Floor(2 * q.eps * float64(q.n)))
	// Walk from the tail, merging tuple i into i+1 where allowed. The
	// first and last tuples (stream min/max) are never merged away.
	out := q.tuples
	for i := len(out) - 2; i >= 1; i-- {
		if out[i].g+out[i+1].g+out[i+1].delta < capacity {
			out[i+1].g += out[i].g
			copy(out[i:], out[i+1:])
			out = out[:len(out)-1]
		}
	}
	q.tuples = out
}

// Query returns a value whose rank is within ε·n of phi·n. phi is
// clamped to [0, 1]. Returns 0 on an empty sketch.
func (q *Quantile) Query(phi float64) float64 {
	if len(q.tuples) == 0 {
		return 0
	}
	if phi < 0 {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	// The stream extremes are held exactly (the first and last tuples
	// are never compressed away); answer them directly.
	if phi == 0 {
		return q.tuples[0].v
	}
	if phi == 1 {
		return q.tuples[len(q.tuples)-1].v
	}
	target := phi * float64(q.n)
	margin := q.eps * float64(q.n)
	var rmin uint64
	for i, t := range q.tuples {
		rmin += t.g
		var rmaxNext float64
		if i+1 < len(q.tuples) {
			rmaxNext = float64(rmin + q.tuples[i+1].g + q.tuples[i+1].delta)
		} else {
			return t.v
		}
		if rmaxNext > target+margin {
			return t.v
		}
	}
	return q.tuples[len(q.tuples)-1].v
}

// N is the number of observations.
func (q *Quantile) N() uint64 { return q.n }

// Size is the current number of summary tuples — the figure the
// capacity tests bound.
func (q *Quantile) Size() int { return len(q.tuples) }
