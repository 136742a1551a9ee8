package analysis

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cag"
)

// TestAccumulatorMatchesAggregate pins the incremental accumulator's
// equivalence contract: observing graphs one at a time produces the
// same MeanLatency and Shares (values and order) as the post-hoc
// cag.Aggregate pass, including the integer-division truncation.
func TestAccumulatorMatchesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := make([]*cag.Graph, 0, 37)
	for i := 0; i < 37; i++ {
		// Odd hop durations exercise the Duration integer division.
		hop := time.Duration(1+rng.Intn(9999)) * time.Microsecond
		graphs = append(graphs, buildPath(t, hop, i))
	}
	avg, err := cag.Aggregate(graphs)
	if err != nil {
		t.Fatal(err)
	}
	// The reference: the PatternReport shape of an Aggregate —
	// alphabetical categories with percentages of the truncated means.
	cats, vals := avg.Percentages()
	acc := NewAccumulator(avg.Name, avg.Signature)
	for _, g := range graphs {
		acc.Observe(g.Latency())
		for cat, d := range cag.ComponentLatencies(g) {
			acc.Add(cat, d)
		}
	}
	rep := acc.Report()
	if rep == nil {
		t.Fatal("nil report after observations")
	}
	if rep.Count != avg.Count || rep.MeanLatency != avg.MeanLatency {
		t.Fatalf("count/mean = %d/%v, want %d/%v", rep.Count, rep.MeanLatency, avg.Count, avg.MeanLatency)
	}
	if rep.Name != avg.Name || rep.Signature != avg.Signature {
		t.Fatalf("identity = %q/%q, want %q/%q", rep.Name, rep.Signature, avg.Name, avg.Signature)
	}
	if got := rep.Categories(); !reflect.DeepEqual(got, cats) {
		t.Fatalf("categories = %v, want %v", got, cats)
	}
	for i, c := range cats {
		s := rep.Shares[i]
		if s.Mean != avg.Components[c] {
			t.Fatalf("%s mean = %v, want %v", c, s.Mean, avg.Components[c])
		}
		if s.Percent != vals[i] {
			t.Fatalf("%s percent = %v, want %v", c, s.Percent, vals[i])
		}
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	acc := NewAccumulator("p", "sig")
	if acc.Report() != nil {
		t.Fatal("empty accumulator must report nil")
	}
	if acc.Count() != 0 {
		t.Fatalf("count = %d", acc.Count())
	}
}
