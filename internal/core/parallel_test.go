package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cag"
	"repro/internal/rubis"
)

// fingerprint renders a graph into a canonical byte string covering the
// full structure and provenance: vertex order, types, timestamps,
// contexts, channels, sizes, parent links and underlying record IDs. Two
// graphs with equal fingerprints are identical for every downstream
// consumer (patterns, breakdowns, accuracy scoring).
func fingerprint(g *cag.Graph) string {
	var b strings.Builder
	b.WriteString(cag.Dump(g))
	for i := 0; i < g.Len(); i++ {
		v := g.Vertex(i)
		fmt.Fprintf(&b, "%d %s %v|", i, v.Chan, v.Size)
	}
	fmt.Fprintf(&b, "records=%v latency=%v", g.RecordIDs(), g.Latency())
	return b.String()
}

func rubisTrace(t testing.TB, clients int, scale float64, noise int) *rubis.Result {
	t.Helper()
	cfg := rubis.DefaultConfig(clients)
	cfg.Scale = scale
	cfg.NoiseSessions = noise
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func correlate(t testing.TB, res *rubis.Result, workers int) *Result {
	t.Helper()
	out, err := New(Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
		Workers:    workers,
	}).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSameGraphs compares two correlation results graph-by-graph, in
// emission order, by canonical fingerprint — plus the derived artefacts
// the paper's evaluation is built on: pattern census and per-pattern
// latency breakdowns.
func assertSameGraphs(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Graphs) != len(got.Graphs) {
		t.Fatalf("%s: graph count %d, want %d", label, len(got.Graphs), len(want.Graphs))
	}
	for i := range want.Graphs {
		wf, gf := fingerprint(want.Graphs[i]), fingerprint(got.Graphs[i])
		if wf != gf {
			t.Fatalf("%s: graph %d differs\n--- want ---\n%s\n--- got ---\n%s", label, i, wf, gf)
		}
	}

	wantPat, gotPat := cag.Classify(want.Graphs), cag.Classify(got.Graphs)
	if len(wantPat) != len(gotPat) {
		t.Fatalf("%s: pattern count %d, want %d", label, len(gotPat), len(wantPat))
	}
	for i := range wantPat {
		if wantPat[i].Signature != gotPat[i].Signature || wantPat[i].Count() != gotPat[i].Count() {
			t.Fatalf("%s: pattern %d: got %s×%d, want %s×%d", label, i,
				gotPat[i].Signature, gotPat[i].Count(), wantPat[i].Signature, wantPat[i].Count())
		}
		wa, err := cag.Aggregate(wantPat[i].Graphs)
		if err != nil {
			t.Fatal(err)
		}
		ga, err := cag.Aggregate(gotPat[i].Graphs)
		if err != nil {
			t.Fatal(err)
		}
		if wa.MeanLatency != ga.MeanLatency {
			t.Fatalf("%s: pattern %d mean latency %v, want %v", label, i, ga.MeanLatency, wa.MeanLatency)
		}
		wc, gc := slices.Sorted(maps.Keys(wa.Components)), slices.Sorted(maps.Keys(ga.Components))
		wv, gv := make([]float64, len(wc)), make([]float64, len(gc))
		for j, c := range wc {
			wv[j] = wa.Percent(c)
		}
		for j, c := range gc {
			gv[j] = ga.Percent(c)
		}
		if fmt.Sprint(wc, wv) != fmt.Sprint(gc, gv) {
			t.Fatalf("%s: pattern %d breakdown differs:\ngot  %v %v\nwant %v %v", label, i, gc, gv, wc, wv)
		}
	}
}

// TestParallelEquivalence is the headline guarantee of the sharded
// pipeline: for every worker count, the concurrent correlator emits
// exactly the sequential correlator's graphs, in the
// same order, with the same pattern census and latency breakdowns.
func TestParallelEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		clients int
		scale   float64
		noise   int
	}{
		{"clean", 120, 0.03, 0},
		{"noisy", 120, 0.03, 8},
		{"larger", 300, 0.05, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := rubisTrace(t, tc.clients, tc.scale, tc.noise)
			seq := correlate(t, res, 1)
			if len(seq.Graphs) == 0 {
				t.Fatal("sequential pass produced no graphs")
			}
			for _, workers := range []int{4, 8} {
				label := fmt.Sprintf("workers=%d", workers)
				par := correlate(t, res, workers)
				assertSameGraphs(t, label, seq, par)
				// The shard engines collectively did exactly the
				// sequential engine's work.
				if par.Engine.Begins != seq.Engine.Begins ||
					par.Engine.Finished != seq.Engine.Finished ||
					par.Engine.Sends != seq.Engine.Sends ||
					par.Engine.Receives != seq.Engine.Receives {
					t.Fatalf("%s: engine stats diverged: got %+v, want %+v", label, par.Engine, seq.Engine)
				}
			}
		})
	}
}

// TestParallelDeterminism runs the concurrent path repeatedly: goroutine
// scheduling must never leak into the output.
func TestParallelDeterminism(t *testing.T) {
	res := rubisTrace(t, 120, 0.03, 4)
	first := correlate(t, res, 8)
	for run := 0; run < 3; run++ {
		again := correlate(t, res, 8)
		assertSameGraphs(t, fmt.Sprintf("run %d", run), first, again)
	}
}

// TestParallelOnGraphOrder verifies the streaming contract: with
// Workers > 1 the sink chain fires from the merge stage in
// non-decreasing END-timestamp order — the order the live monitor
// requires — and sees every graph the accumulated result would hold.
func TestParallelOnGraphOrder(t *testing.T) {
	res := rubisTrace(t, 120, 0.03, 0)
	var streamed []*cag.Graph
	out, err := New(Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
		Workers:    4,
		Sinks:      []GraphSink{GraphSinkFunc(func(g *cag.Graph) { streamed = append(streamed, g) })},
	}).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Graphs) != 0 {
		t.Fatalf("streaming mode accumulated %d graphs", len(out.Graphs))
	}
	if len(streamed) == 0 {
		t.Fatal("no graphs streamed")
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i].End().Timestamp < streamed[i-1].End().Timestamp {
			t.Fatalf("stream order regressed at %d: %v after %v",
				i, streamed[i].End().Timestamp, streamed[i-1].End().Timestamp)
		}
	}
	seq := correlate(t, res, 1)
	if len(streamed) != len(seq.Graphs) {
		t.Fatalf("streamed %d graphs, sequential emitted %d", len(streamed), len(seq.Graphs))
	}
}

// TestPaperExactNoiseSharded: the Fig. 5 ablation predicate is served
// per shard — channel closure keeps every SEND that could match a
// RECEIVE in the RECEIVE's component, so the shard-local pending-SEND
// answer equals the global one — and exact mode runs on the streaming
// engine at every worker count with identical output.
func TestPaperExactNoiseSharded(t *testing.T) {
	res := rubisTrace(t, 120, 0.03, 8)
	run := func(workers int) *Result {
		out, err := New(Options{
			Window:          10 * time.Millisecond,
			EntryPorts:      []int{rubis.EntryPort},
			IPToHost:        res.IPToHost,
			PaperExactNoise: true,
			Workers:         workers,
		}).CorrelateTrace(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	assertSameGraphs(t, "paper-exact-noise", seq, par)
	if seq.Shards == 0 || par.Shards == 0 {
		t.Fatalf("exact mode did not shard: %d and %d components", seq.Shards, par.Shards)
	}
}

// TestResolveWorkers pins the CLI flag convention: 0 = all CPUs,
// negatives = sequential.
func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(0); got < 1 {
		t.Fatalf("ResolveWorkers(0) = %d, want >= 1", got)
	}
	if got := ResolveWorkers(-3); got != 1 {
		t.Fatalf("ResolveWorkers(-3) = %d, want 1", got)
	}
	if got := ResolveWorkers(6); got != 6 {
		t.Fatalf("ResolveWorkers(6) = %d, want 6", got)
	}
}

// TestParallelSmallInputs exercises the degenerate pipeline shapes: empty
// trace, single activity, fewer components than workers.
func TestParallelSmallInputs(t *testing.T) {
	out, err := New(Options{
		EntryPorts: []int{80},
		Workers:    8,
	}).CorrelateTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Graphs) != 0 {
		t.Fatalf("empty trace produced %d graphs", len(out.Graphs))
	}

	res := rubisTrace(t, 2, 0.01, 0)
	seq := correlate(t, res, 1)
	par := correlate(t, res, 16)
	assertSameGraphs(t, "tiny", seq, par)
}
