package repro_test

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rubis"
)

// benchEntry is one measured configuration in the BENCH_pipeline.json
// trajectory. NumCPU/GoMaxProcs are recorded per entry (not only in the
// report header) so entries appended or compared across differently
// sized hosts stay interpretable — 1-CPU numbers record pipeline
// overhead, not speedup.
type benchEntry struct {
	Scale      float64 `json:"scale"`
	Clients    int     `json:"clients"`
	Activities int     `json:"activities"`
	Graphs     int     `json:"graphs"`
	Workers    int     `json:"workers"`
	ShardBy    string  `json:"shard_by"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	BestNs     int64   `json:"best_ns"`
	Speedup    float64 `json:"speedup_vs_seq"`
	// Efficiency is parallel efficiency — Speedup divided by Workers,
	// 1.0 meaning perfectly linear scaling. The `make bench-scaling`
	// gate (TestScalingEfficiencyGate) floors this figure at scale 0.1
	// with workers=NumCPU on multi-core hosts.
	Efficiency float64 `json:"efficiency"`
}

// sessionPushEntry records the unified streaming engine's push-path cost
// (BenchmarkSessionPush measures the same path interactively): classify +
// incremental flow partition + component bookkeeping + periodic drains,
// normalised to ns per pushed activity.
type sessionPushEntry struct {
	Scale         float64 `json:"scale"`
	Clients       int     `json:"clients"`
	Activities    int     `json:"activities"`
	Workers       int     `json:"workers"`
	SealAfterMs   int     `json:"seal_after_ms"`
	NumCPU        int     `json:"num_cpu"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	NsPerActivity float64 `json:"ns_per_activity"`
	// AllocsPerOp is heap allocations for one full replay of the trace —
	// the same figure BenchmarkSessionPush -benchmem reports, and the one
	// `make bench-allocs` gates. The close-driven case measured 178,250
	// before the dense identity layer (see AllocsBaseline).
	AllocsPerOp uint64 `json:"allocs_per_op,omitempty"`
}

// monitorIngestEntry records the live monitor's per-CAG ingest cost in
// exact vs sketched accounting (internal/live's BenchmarkMonitorIngest
// measures the same path, with its allocations, for make bench-allocs).
type monitorIngestEntry struct {
	Mode        string  `json:"mode"` // exact | sketched
	Graphs      int     `json:"graphs"`
	MaxPatterns int     `json:"max_patterns,omitempty"`
	NsPerGraph  float64 `json:"ns_per_graph"`
	AllocsPerOp uint64  `json:"allocs_per_op,omitempty"`
}

type benchReport struct {
	Benchmark  string       `json:"benchmark"`
	NumCPU     int          `json:"num_cpu"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Note       string       `json:"note,omitempty"`
	Entries    []benchEntry `json:"entries"`
	// AllocsBaseline is the close-driven session_push allocs_per_op
	// before the interned identity layer — the reference the current
	// entries' allocation cut is measured against.
	AllocsBaseline uint64 `json:"session_push_allocs_baseline,omitempty"`
	// AllocsBaselineContinuous is the continuous-mode (SealAfter)
	// session_push allocs_per_op before the worker pool reused its
	// ranker/engine pair across sealed components — the reference for
	// the continuous allocation gate (make bench-allocs).
	AllocsBaselineContinuous uint64               `json:"session_push_allocs_baseline_continuous,omitempty"`
	SessionPush              []sessionPushEntry   `json:"session_push,omitempty"`
	MonitorIngest            []monitorIngestEntry `json:"monitor_ingest,omitempty"`
}

// monitorFeed runs one full monitor pass over pre-correlated graphs.
func monitorFeed(graphs []*cag.Graph, sketched bool, maxPatterns int) {
	m := live.NewMonitor(live.Config{
		Interval:          2 * time.Second,
		BaselineIntervals: 2,
		MinRequests:       5,
		Sketched:          sketched,
		MaxPatterns:       maxPatterns,
	})
	for _, g := range graphs {
		m.ConsumeGraph(g)
	}
	m.Flush()
}

// sessionReplay pushes the trace through an online Session in global
// timestamp order with periodic drains — the unified push path every
// execution mode now runs on.
func sessionReplay(tb testing.TB, res *rubis.Result, workers int, sealAfter time.Duration) {
	tb.Helper()
	hosts := make([]string, 0, len(res.PerHost))
	for h := range res.PerHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	arr := make([]*activity.Activity, len(res.Trace))
	copy(arr, res.Trace)
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Timestamp < arr[j].Timestamp })
	sess, err := core.NewSession(core.Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
		Workers:    workers,
		SealAfter:  sealAfter,
		Sinks:      []core.GraphSink{core.GraphSinkFunc(func(*cag.Graph) {})},
	}, hosts)
	if err != nil {
		tb.Fatal(err)
	}
	for i, a := range arr {
		if err := sess.Push(a); err != nil {
			tb.Fatal(err)
		}
		if (i+1)%256 == 0 {
			sess.Drain()
		}
	}
	out := sess.Close()
	if out.Activities != len(arr) {
		tb.Fatalf("replayed %d activities, want %d", out.Activities, len(arr))
	}
}

// BenchmarkSessionPush measures the unified push path end to end (push +
// periodic drain + close), reported in ns per pushed activity — the
// figure to watch when touching stream.go's ingest/seal/emit stages.
func BenchmarkSessionPush(b *testing.B) {
	cfg := rubis.DefaultConfig(300)
	cfg.Scale = 0.05
	res, err := rubis.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name      string
		workers   int
		sealAfter time.Duration
	}{
		{"seq-close-driven", 1, 0},
		{"seq-continuous", 1, 250 * time.Millisecond},
		{"sharded-continuous", 4, 250 * time.Millisecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				sessionReplay(b, res, bc.workers, bc.sealAfter)
			}
			perAct := float64(time.Since(start).Nanoseconds()) / float64(b.N*len(res.Trace))
			b.ReportMetric(perAct, "ns/activity")
		})
	}
}

// TestPipelineSpeedupTrajectory measures the sharded correlator against
// the sequential pass across RUBiS scales and worker counts, and — when
// BENCH_PIPELINE_OUT names a file — records the trajectory there (the
// hosted bench job sets it to BENCH_pipeline.json). On a multi-core
// machine the sharded pipeline must beat sequential wall-clock at scale
// >= 0.1; on a single-CPU machine there is no parallelism to win with
// (the pipeline pays partition + merge overhead and gets no concurrent
// shard execution), so the comparison is measured but not asserted.
func TestPipelineSpeedupTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup trajectory is not measured in -short mode")
	}
	if raceEnabled {
		t.Skip("race-instrumented timings are 5-20x off; not worth recording")
	}

	report := benchReport{
		Benchmark:  "sharded concurrent correlation pipeline vs sequential correlator",
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	multiCore := runtime.NumCPU() >= 2
	if !multiCore {
		report.Note = "single-CPU host: parallel speedup not expected; entries record pipeline overhead"
	}

	measure := func(res *rubis.Result, workers int) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			out, err := core.New(core.Options{
				Window:     10 * time.Millisecond,
				EntryPorts: []int{rubis.EntryPort},
				IPToHost:   res.IPToHost,
				Workers:    workers,
			}).CorrelateTrace(res.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Graphs) == 0 {
				t.Fatal("no graphs")
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}

	type scaleCase struct {
		scale   float64
		clients int
	}
	cases := []scaleCase{{0.02, 300}, {0.05, 300}, {0.1, 300}}
	workerCounts := []int{1, 2, 4, 8}

	atScaleTenth := map[int]time.Duration{}
	var resTenth *rubis.Result
	var graphsTenth int
	for _, sc := range cases {
		cfg := rubis.DefaultConfig(sc.clients)
		cfg.Scale = sc.scale
		res, err := rubis.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var graphs int
		{
			out, err := core.New(core.Options{
				Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost,
			}).CorrelateTrace(res.Trace)
			if err != nil {
				t.Fatal(err)
			}
			graphs = len(out.Graphs)
		}
		var seq time.Duration
		for _, w := range workerCounts {
			best := measure(res, w)
			if w == 1 {
				seq = best
			}
			if sc.scale >= 0.1 {
				atScaleTenth[w] = best
				resTenth, graphsTenth = res, graphs
			}
			speedup := float64(seq) / float64(best)
			report.Entries = append(report.Entries, benchEntry{
				Scale: sc.scale, Clients: sc.clients, Activities: len(res.Trace), Graphs: graphs,
				Workers: w, ShardBy: core.ShardByFlow.String(),
				NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
				BestNs: int64(best), Speedup: speedup, Efficiency: speedup / float64(w),
			})
			t.Logf("scale=%.2f workers=%d best=%v (%.2fx vs sequential, efficiency %.2f)",
				sc.scale, w, best, speedup, speedup/float64(w))
		}
	}

	// GOMAXPROCS control dimension: on a multi-core host, rerun the
	// largest scale pinned to a single P. Speedup there measures pure
	// pipeline overhead (there is no parallel hardware to win with), so
	// comparing the GoMaxProcs:1 rows against the unpinned rows separates
	// "the ring/pipeline costs X" from "the hardware delivers Y". A
	// single-CPU host already *is* the pinned configuration — no rerun.
	if multiCore && resTenth != nil {
		prev := runtime.GOMAXPROCS(1)
		var seq time.Duration
		for _, w := range []int{1, workerCounts[len(workerCounts)-1]} {
			best := measure(resTenth, w)
			if w == 1 {
				seq = best
			}
			speedup := float64(seq) / float64(best)
			report.Entries = append(report.Entries, benchEntry{
				Scale: 0.1, Clients: 300, Activities: len(resTenth.Trace), Graphs: graphsTenth,
				Workers: w, ShardBy: core.ShardByFlow.String(),
				NumCPU: runtime.NumCPU(), GoMaxProcs: 1,
				BestNs: int64(best), Speedup: speedup, Efficiency: speedup / float64(w),
			})
			t.Logf("GOMAXPROCS=1 control: workers=%d best=%v (%.2fx vs pinned sequential)", w, best, speedup)
		}
		runtime.GOMAXPROCS(prev)
	}

	// The unified push path (post-refactor): one session-replay
	// measurement per configuration, best of 3, ns per pushed activity.
	{
		cfg := rubis.DefaultConfig(300)
		cfg.Scale = 0.05
		res, err := rubis.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		report.AllocsBaseline = 178250           // close-driven, before dense interned identities
		report.AllocsBaselineContinuous = 139041 // SealAfter mode, before worker-pool ranker/engine reuse
		for _, pc := range []struct {
			workers   int
			sealAfter time.Duration
		}{{1, 0}, {1, 250 * time.Millisecond}, {4, 250 * time.Millisecond}} {
			best := time.Duration(1 << 62)
			for i := 0; i < 3; i++ {
				start := time.Now()
				sessionReplay(t, res, pc.workers, pc.sealAfter)
				if el := time.Since(start); el < best {
					best = el
				}
			}
			// One instrumented replay for the allocation figure; timing
			// comes from the uninstrumented runs above.
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			sessionReplay(t, res, pc.workers, pc.sealAfter)
			runtime.ReadMemStats(&m1)
			allocs := m1.Mallocs - m0.Mallocs
			perAct := float64(best.Nanoseconds()) / float64(len(res.Trace))
			report.SessionPush = append(report.SessionPush, sessionPushEntry{
				Scale: cfg.Scale, Clients: 300, Activities: len(res.Trace),
				Workers: pc.workers, SealAfterMs: int(pc.sealAfter / time.Millisecond),
				NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
				NsPerActivity: perAct, AllocsPerOp: allocs,
			})
			t.Logf("session push: workers=%d sealafter=%v %.0f ns/activity, %d allocs/op",
				pc.workers, pc.sealAfter, perAct, allocs)
		}
	}

	// Live monitor ingest: exact vs sketched over the same correlated
	// graphs, best of 3 plus one instrumented pass for allocations.
	{
		cfg := rubis.DefaultConfig(300)
		cfg.Scale = 0.05
		res, err := rubis.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := core.New(core.Options{
			Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost,
		}).CorrelateTrace(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		graphs := out.Graphs
		for _, mc := range []struct {
			mode        string
			sketched    bool
			maxPatterns int
		}{{"exact", false, 0}, {"sketched", true, 64}} {
			best := time.Duration(1 << 62)
			for i := 0; i < 3; i++ {
				start := time.Now()
				monitorFeed(graphs, mc.sketched, mc.maxPatterns)
				if el := time.Since(start); el < best {
					best = el
				}
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			monitorFeed(graphs, mc.sketched, mc.maxPatterns)
			runtime.ReadMemStats(&m1)
			perGraph := float64(best.Nanoseconds()) / float64(len(graphs))
			report.MonitorIngest = append(report.MonitorIngest, monitorIngestEntry{
				Mode: mc.mode, Graphs: len(graphs), MaxPatterns: mc.maxPatterns,
				NsPerGraph: perGraph, AllocsPerOp: m1.Mallocs - m0.Mallocs,
			})
			t.Logf("monitor ingest: mode=%s %.0f ns/graph, %d allocs/op",
				mc.mode, perGraph, m1.Mallocs-m0.Mallocs)
		}
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// Writing is opt-in: a plain `go test ./...` measures and asserts but
	// leaves the checked-in baseline (and the tree) alone.
	if out := os.Getenv("BENCH_PIPELINE_OUT"); out != "" {
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if multiCore {
		seq, bestPar := atScaleTenth[1], time.Duration(1<<62)
		bestWorkers := 0
		for w, d := range atScaleTenth {
			if w > 1 && d < bestPar {
				bestPar, bestWorkers = d, w
			}
		}
		if bestPar >= seq {
			// One retry with fresh measurements before failing: a loaded
			// CI host can skew a single 3-repetition sample.
			cfg := rubis.DefaultConfig(300)
			cfg.Scale = 0.1
			res, err := rubis.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seq, bestPar = measure(res, 1), measure(res, bestWorkers)
		}
		if bestPar >= seq {
			t.Fatalf("multi-core host (%d CPUs) but sharded pipeline (%v) did not beat sequential (%v) at scale 0.1",
				runtime.NumCPU(), bestPar, seq)
		}
	} else {
		t.Logf("single-CPU host: skipping the multi-core speedup assertion")
	}
}
