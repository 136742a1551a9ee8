package analysis

import (
	"sort"
	"time"
)

// Accumulator folds one pattern's per-graph latency observations into
// the same PatternReport a post-hoc cag.Aggregate pass would produce —
// the incremental form the live monitor runs the Detector on. It holds
// one duration per category regardless of how many graphs are observed,
// so a bucket of accumulators is bounded by the pattern's category
// count, not the interval's request count.
//
// Equivalence contract: Observe-ing every member of an isomorphic set,
// Add-ing each member's critical-path hops (cag.ComponentLatencies, or
// hop by hop), and calling Report yields byte-identical Shares/MeanLatency to the
// PatternReport of cag.Aggregate(members) (alphabetical categories,
// percentages of the truncated means) — the integer divisions happen at
// Report time, in the same order, on the same sums
// (TestAccumulatorMatchesAggregate pins this; package live's retained-
// graph oracle test pins it for the monitor).
type Accumulator struct {
	Name      string
	Signature string

	count  int
	latSum time.Duration
	catSum map[string]time.Duration
}

// NewAccumulator returns an empty accumulator for one pattern.
func NewAccumulator(name, signature string) *Accumulator {
	return &Accumulator{
		Name:      name,
		Signature: signature,
		catSum:    make(map[string]time.Duration),
	}
}

// Observe counts one graph and folds its end-to-end latency into the
// running totals; its critical-path categories go in through Add.
func (a *Accumulator) Observe(latency time.Duration) {
	a.count++
	a.latSum += latency
}

// Add adds d to category's running sum. Sums are integers, so adding
// hop by hop or category by category gives the same totals.
func (a *Accumulator) Add(category string, d time.Duration) { a.catSum[category] += d }

// Count is the number of graphs observed.
func (a *Accumulator) Count() int { return a.count }

// Report materialises the PatternReport. Returns nil before any
// observation (a zero-count mean is undefined).
func (a *Accumulator) Report() *PatternReport {
	if a.count == 0 {
		return nil
	}
	n := time.Duration(a.count)
	mean := a.latSum / n
	rep := &PatternReport{
		Name:        a.Name,
		Signature:   a.Signature,
		Count:       a.count,
		MeanLatency: mean,
	}
	cats := make([]string, 0, len(a.catSum))
	for c := range a.catSum {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		compMean := a.catSum[c] / n
		var pct float64
		if mean > 0 {
			pct = 100 * float64(compMean) / float64(mean)
		}
		rep.Shares = append(rep.Shares, ComponentShare{
			Category: c, Mean: compMean, Percent: pct,
		})
	}
	return rep
}
