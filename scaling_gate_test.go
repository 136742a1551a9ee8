package repro_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rubis"
)

// TestScalingEfficiencyGate is the `make bench-scaling` gate: on a
// multi-core host it measures parallel efficiency — speedup over the
// sequential pass divided by worker count — at the largest benchmark
// scale with workers=NumCPU, and fails when it drops below a checked-in
// floor. The floor (SCALING_FLOOR, default 0.30) is deliberately well
// under the efficiency a healthy run shows: the gate exists to catch a
// regression that serialises the pipeline (a lock on the hot path, a
// barrier per shard where the pool should stream), not to flake on a
// noisy host.
//
// The gate only runs when BENCH_SCALING_GATE=1 — wall-clock assertions
// do not belong in the default `go test ./...` tier.
func TestScalingEfficiencyGate(t *testing.T) {
	if os.Getenv("BENCH_SCALING_GATE") != "1" {
		t.Skip("scaling gate runs only under BENCH_SCALING_GATE=1 (make bench-scaling)")
	}
	if testing.Short() {
		t.Skip("scaling gate is not measured in -short mode")
	}
	if raceEnabled {
		t.Skip("race-instrumented timings are 5-20x off; scaling gate skipped")
	}
	workers := runtime.NumCPU()
	if workers < 2 {
		t.Skip("single-CPU host: no parallel hardware to gate on")
	}

	floor := 0.30
	if env := os.Getenv("SCALING_FLOOR"); env != "" {
		f, err := strconv.ParseFloat(env, 64)
		if err != nil || f <= 0 || f > 1 {
			t.Fatalf("SCALING_FLOOR=%q: want a number in (0, 1]", env)
		}
		floor = f
	}

	cfg := rubis.DefaultConfig(300)
	cfg.Scale = 0.1
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(w int) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			out, err := core.New(core.Options{
				Window:     10 * time.Millisecond,
				EntryPorts: []int{rubis.EntryPort},
				IPToHost:   res.IPToHost,
				Workers:    w,
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
	efficiency := func() (float64, string) {
		seq, par := measure(1), measure(workers)
		speedup := float64(seq) / float64(par)
		eff := speedup / float64(workers)
		return eff, fmt.Sprintf("seq=%v par=%v speedup=%.2fx workers=%d efficiency=%.3f", seq, par, speedup, workers, eff)
	}

	eff, detail := efficiency()
	t.Logf("scaling: %s (floor %.2f)", detail, floor)
	if eff < floor {
		// One fresh remeasurement before failing: a loaded host can skew
		// a single best-of-3 sample.
		eff, detail = efficiency()
		t.Logf("scaling retry: %s (floor %.2f)", detail, floor)
	}
	if eff < floor {
		t.Fatalf("parallel efficiency %.3f below floor %.2f at scale 0.1 (%s)", eff, floor, detail)
	}
}
