package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/baseline"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rubis"
)

// benchScale keeps each figure bench around a second; cmd/experiments runs
// the same drivers at larger scales.
const benchScale = 0.004

// benchFigure runs one experiment driver per iteration.
func benchFigure(b *testing.B, run func(float64) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := run(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per §5 table/figure (plus the accuracy grid and the two
// ablations), regenerating the corresponding result.

func BenchmarkAccuracy(b *testing.B)          { benchFigure(b, experiments.Accuracy) }
func BenchmarkFig8(b *testing.B)              { benchFigure(b, experiments.Fig8) }
func BenchmarkFig9(b *testing.B)              { benchFigure(b, experiments.Fig9) }
func BenchmarkFig10(b *testing.B)             { benchFigure(b, experiments.Fig10) }
func BenchmarkFig11(b *testing.B)             { benchFigure(b, experiments.Fig11) }
func BenchmarkFig12(b *testing.B)             { benchFigure(b, experiments.Fig12) }
func BenchmarkFig13(b *testing.B)             { benchFigure(b, experiments.Fig13) }
func BenchmarkFig14(b *testing.B)             { benchFigure(b, experiments.Fig14) }
func BenchmarkFig15(b *testing.B)             { benchFigure(b, experiments.Fig15) }
func BenchmarkFig16(b *testing.B)             { benchFigure(b, experiments.Fig16) }
func BenchmarkFig17(b *testing.B)             { benchFigure(b, experiments.Fig17) }
func BenchmarkAblationBaselines(b *testing.B) { benchFigure(b, experiments.AblationBaselines) }
func BenchmarkAblationIsNoise(b *testing.B)   { benchFigure(b, experiments.AblationPaperExactNoise) }

// benchTrace generates one deterministic mid-size trace for the
// micro-benchmarks below.
func benchTrace(b *testing.B) *rubis.Result {
	b.Helper()
	cfg := rubis.DefaultConfig(300)
	cfg.Scale = 0.02
	res, err := rubis.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkCorrelate measures the Correlator's end-to-end cost per
// activity — the quantity behind the Fig. 9 linearity claim.
func BenchmarkCorrelate(b *testing.B) {
	res := benchTrace(b)
	opts := core.Options{
		Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := core.New(opts).CorrelateTrace(res.Trace)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Graphs) == 0 {
			b.Fatal("no output")
		}
	}
	b.ReportMetric(float64(len(res.Trace)), "activities/op")
}

// BenchmarkCorrelateSharded measures the concurrent pipeline against the
// sequential pass on one trace; the asserted speedup check is
// TestScalingEfficiencyGate (make bench-scaling).
func BenchmarkCorrelateSharded(b *testing.B) {
	res := benchTrace(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.Options{
				Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort},
				IPToHost: res.IPToHost, Workers: workers,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := core.New(opts).CorrelateTrace(res.Trace)
				if err != nil {
					b.Fatal(err)
				}
				if len(out.Graphs) == 0 {
					b.Fatal("no output")
				}
			}
		})
	}
}

// BenchmarkCorrelateWideWindow isolates the window-size cost (Fig. 10's
// mechanism: a larger window buffers more and stresses the allocator).
func BenchmarkCorrelateWideWindow(b *testing.B) {
	res := benchTrace(b)
	opts := core.Options{
		Window: 100 * time.Second, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(opts).CorrelateTrace(res.Trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineNaive and BenchmarkBaselineNesting compare comparator
// costs on the same trace.
func BenchmarkBaselineNaive(b *testing.B) {
	res := benchTrace(b)
	classified := classify(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Naive(classified)
	}
}

func BenchmarkBaselineNesting(b *testing.B) {
	res := benchTrace(b)
	classified := classify(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Nesting(classified, baseline.NestingConfig{})
	}
}

func classify(res *rubis.Result) []*activity.Activity {
	cls := activity.NewClassifier(rubis.EntryPort)
	out := make([]*activity.Activity, len(res.Trace))
	for i, a := range res.Trace {
		cp := *a
		cp.Type = cls.Classify(a)
		out[i] = &cp
	}
	return out
}

// BenchmarkSignature measures pattern classification cost per CAG.
func BenchmarkSignature(b *testing.B) {
	res := benchTrace(b)
	out, err := core.New(core.Options{
		Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost,
	}).CorrelateTrace(res.Trace)
	if err != nil {
		b.Fatal(err)
	}
	graphs := out.Graphs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cag.Signature(graphs[i%len(graphs)])
	}
}

// BenchmarkClassifyAndAggregate measures the full pattern + average-path
// pipeline over a run's CAGs.
func BenchmarkClassifyAndAggregate(b *testing.B) {
	res := benchTrace(b)
	out, err := core.New(core.Options{
		Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost,
	}).CorrelateTrace(res.Trace)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patterns := cag.Classify(out.Graphs)
		for _, p := range patterns {
			if _, err := cag.Aggregate(p.Graphs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWireFormat measures TCP_TRACE parse/format round-trip cost.
func BenchmarkWireFormat(b *testing.B) {
	res := benchTrace(b)
	line := activity.FormatRecord(res.Trace[0], true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := activity.ParseRecord(line)
		if err != nil {
			b.Fatal(err)
		}
		line = activity.FormatRecord(a, true)
	}
}

// BenchmarkTestbed measures the simulator itself (virtual-seconds per
// wall-second at 300 clients).
func BenchmarkTestbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := rubis.DefaultConfig(300)
		cfg.Scale = 0.01
		if _, err := rubis.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
