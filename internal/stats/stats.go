// Package stats provides the small statistical toolkit the evaluation
// harness needs: log-scale latency histograms with percentile queries,
// linear-fit checks used to verify the paper's complexity claims (e.g.
// Fig. 9's "correlation time is linear in the number of requests"), and
// terminal sparklines.
package stats

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Histogram is a log-scale latency histogram: buckets grow geometrically
// from Min by factor Growth, giving bounded relative error for percentile
// queries across microseconds-to-minutes ranges.
type Histogram struct {
	minV    time.Duration
	growth  float64
	buckets []int64
	under   int64
	total   int64
	sum     time.Duration
	maxSeen time.Duration
}

// NewHistogram returns a histogram starting at minV with the given bucket
// growth factor (>1) and bucket count.
func NewHistogram(minV time.Duration, growth float64, buckets int) *Histogram {
	if minV <= 0 {
		minV = time.Microsecond
	}
	if growth <= 1 {
		growth = 1.25
	}
	if buckets <= 0 {
		buckets = 128
	}
	return &Histogram{minV: minV, growth: growth, buckets: make([]int64, buckets)}
}

// NewLatencyHistogram returns a histogram suitable for request latencies
// (1µs .. ~30min at 15% relative resolution).
func NewLatencyHistogram() *Histogram {
	return NewHistogram(time.Microsecond, 1.15, 160)
}

func (h *Histogram) bucketOf(d time.Duration) int {
	if d < h.minV {
		return -1
	}
	idx := int(math.Log(float64(d)/float64(h.minV)) / math.Log(h.growth))
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	return idx
}

// lowerBound returns the lower edge of bucket i.
func (h *Histogram) lowerBound(i int) time.Duration {
	return time.Duration(float64(h.minV) * math.Pow(h.growth, float64(i)))
}

// Add records one latency.
func (h *Histogram) Add(d time.Duration) {
	h.total++
	h.sum += d
	if d > h.maxSeen {
		h.maxSeen = d
	}
	if i := h.bucketOf(d); i < 0 {
		h.under++
	} else {
		h.buckets[i]++
	}
}

// N returns the number of recorded latencies.
func (h *Histogram) N() int64 { return h.total }

// Mean returns the exact mean (tracked separately from the buckets).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Percentile returns the approximate q-quantile (0 < q <= 1): the lower
// edge of the bucket containing it (relative error bounded by the growth
// factor).
func (h *Histogram) Percentile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0.0001
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.total)))
	acc := h.under
	if acc >= target {
		return h.minV
	}
	for i, c := range h.buckets {
		acc += c
		if acc >= target {
			return h.lowerBound(i)
		}
	}
	return h.maxSeen
}

// LinearFit is an ordinary least-squares fit y = a + b·x with R².
type LinearFit struct {
	A, B, R2 float64
	N        int
}

// FitLinear fits y against x. It returns a zero fit for fewer than two
// points.
func FitLinear(xs, ys []float64) LinearFit {
	n := len(xs)
	if n < 2 || len(ys) != n {
		return LinearFit{}
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{N: n}
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinearFit{A: a, B: b, R2: r2, N: n}
}

// String implements fmt.Stringer.
func (f LinearFit) String() string {
	return fmt.Sprintf("y = %.4g + %.4g*x (R²=%.4f, n=%d)", f.A, f.B, f.R2, f.N)
}

// Sparkline renders values as a compact unicode bar chart for terminal
// tables.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
