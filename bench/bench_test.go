package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/activity"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesTables: BENCHMARK.json and the tables the program
// prints from must say the same thing.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their why differs)", i, c.Workloads[i].Name, w.name)
		}
	}
	setupBound := 0.0
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setupBound {
			t.Errorf("%s: bound %v must be in (0, 0.25] and no larger than setup_s's %v", d.Name, d.Bound, setupBound)
		}
	}
}

// TestSmoke runs all five workloads end to end on a small trace, two
// rounds of two timed passes each, the second with the traced pass, and checks that each prints every
// metric of BENCHMARK.json exactly once and fails no request.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{
				seed: 1, scale: 0.01, passesScale: 2 * rounds / float64(w.passes),
				e2e: true, layers: true, outDir: t.TempDir(), log: io.Discard,
			}
			var rs []*roundResult
			for _, traced := range []bool{false, true} {
				rr, err := runRound(w, cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				rs = append(rs, rr)
			}
			res := combine(w, cfg, rs)
			if res.Passes != 4 {
				t.Errorf("%d timed passes, want 2 in each of 2 rounds", res.Passes)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			var report bytes.Buffer
			printResult(&report, res)
			rows := make(map[string]int)
			for _, line := range strings.Split(report.String(), "\n") {
				if f := strings.Fields(line); len(f) > 0 {
					rows[f[0]]++
				}
			}
			line, err := json.Marshal(contractLine(res))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			want := append(append([]metricDef(nil), c.EndToEnd...), c.PerLayer...)
			if len(got.Metrics) != len(want) {
				t.Errorf("%d metrics in the result line, want %d", len(got.Metrics), len(want))
			}
			for _, d := range want {
				if rows[d.Name] != 1 {
					t.Errorf("%s printed %d times, want once", d.Name, rows[d.Name])
				}
				m, ok := got.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s: missing from the result line, or unit %q is not %q", d.Name, m.Unit, d.Unit)
				}
			}
			for _, d := range c.EndToEnd {
				if m := got.Metrics[d.Name]; m.Value != nil && *m.Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, *m.Value)
				}
			}
			if _, err := os.Stat(spanFile(cfg.outDir, w)); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestSeedDeterminesInput: one seed, one trace; another seed, another.
func TestSeedDeterminesInput(t *testing.T) {
	w := findWorkload("replay-cont") // the one with noise
	format := func(seed int64) []string {
		in, err := setup(w, seed, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, len(in.trace))
		for i, a := range in.trace {
			lines[i] = activity.FormatRecord(a, true)
		}
		return lines
	}
	a, b, other := format(7), format(7), format(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("two generations from seed 7 differ")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 7 and 8 generate the same trace")
	}
}

// TestPacedValidity: a paced pass whose generator ran late does not count.
func TestPacedValidity(t *testing.T) {
	w := findWorkload("wire-paced")
	horizon := w.sealAfter / pacedCompress // on the wall
	lates := func(most, worst time.Duration) []int64 {
		late := make([]int64, 1000)
		for i := range late {
			late[i] = int64(most)
		}
		late[len(late)-1] = int64(worst)
		return late
	}
	for _, tc := range []struct {
		name   string
		late   []int64
		lagP50 float64 // ms
		valid  bool
	}{
		{"closed loop", nil, 100, true},
		{"on time", lates(time.Millisecond, 20*time.Millisecond), 100, true},
		{"p99 late beside a small lag", lates(30*time.Millisecond, 30*time.Millisecond), 100, false},
		{"p99 late beside a large lag", lates(30*time.Millisecond, 30*time.Millisecond), 2600, true},
		{"one stall of most of a horizon", lates(time.Millisecond, horizon*9/10), 2600, false},
	} {
		p := &pass{w: w, late: tc.late, lagP50: tc.lagP50}
		if why := p.invalid(); (why == "") != tc.valid {
			t.Errorf("%s: invalid() = %q, want valid=%v", tc.name, why, tc.valid)
		}
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "act_per_s", Better: "higher", Bound: 0.07}
	lower := metricDef{Name: "cpu_ns_per_act", Better: "lower", Bound: 0.07}
	tight := func(v float64) sample { return sample{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) sample { return sample{Value: v, Q1: v * 0.9, Q3: v * 1.1} }
	for _, tc := range []struct {
		d    metricDef
		a, b sample
		want string
	}{
		{higher, tight(100), tight(95), "PASS"},
		{higher, tight(100), tight(92), "REGRESSION"},
		{higher, tight(100), tight(120), "PASS"},
		{lower, tight(100), tight(105), "PASS"},
		{lower, tight(100), tight(108), "REGRESSION"},
		{lower, tight(100), wide(108), "UNRESOLVED"},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}
