// Command bench is the repository's benchmark: five workloads, from an
// in-process replay to a paced run over loopback TCP, each generated from
// a seed, checked against internal/groundtruth and a reference replay,
// and measured end to end (tracing off) and layer by layer (one traced
// pass, spans recorded around the benchmark's own calls into each layer).
// README.md has the tables; BENCHMARK.json is the contract.
//
//	bash bench/run.sh                                  # all five workloads
//	bash bench/run.sh -workload wire-closed -seconds 10 -trace 0
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// summary is what -out writes and -compare reads.
type summary struct {
	Benchmark  string    `json:"benchmark"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"num_cpu"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	WallS      float64   `json:"wall_s"`
	Workloads  []*result `json:"workloads"`
	// Claim stays null: this benchmark states numbers; a performance claim
	// belongs to the change that names a metric and a workload from here.
	Claim *string `json:"claim"`
}

func main() {
	var (
		names       = flag.String("workload", "", "workload `name[,name]`; empty runs all five")
		seed        = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds     = flag.Int("seconds", 0, "measure each workload for about this many seconds; 0 uses the fixed pass counts")
		trace       = flag.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only (traced pass); empty: both")
		passesScale = flag.Float64("passes-scale", 1, "multiplies the fixed pass counts, never the trace size")
		out         = flag.String("out", "", "write the results as JSON to this `file`")
		outDir      = flag.String("outdir", filepath.Join("bench", "out"), "`directory` for the span files")
		compare     = flag.Bool("compare", false, "compare two -out files given as arguments: a.json b.json")
		round       = flag.String("round", "", "internal: run one round of the one workload here and write its result to this `file`")
		withTrace   = flag.Bool("with-trace", false, "internal: this round also runs the traced pass")
		spinner     = flag.Int("spinner", 0, "internal: keep a CPU busy until the process with this `pid` is gone")
	)
	flag.Parse()
	if *spinner != 0 {
		spin(*spinner)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: a.json b.json"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	cfg := config{
		seed: *seed, scale: 0.5, budget: time.Duration(*seconds) * time.Second,
		passesScale: *passesScale, e2e: true, layers: true, outDir: *outDir, log: os.Stdout,
	}
	switch *trace {
	case "":
	case "0", "false":
		cfg.layers = false
	case "1", "true":
		cfg.e2e = false
	default:
		fatal(fmt.Errorf("-trace wants 0 or 1, got %q", *trace))
	}
	var chosen []*workload
	if *names == "" {
		chosen = workloads
	} else {
		for _, name := range strings.Split(*names, ",") {
			w := findWorkload(name)
			if w == nil {
				fatal(fmt.Errorf("unknown workload %q", name))
			}
			chosen = append(chosen, w)
		}
	}

	// Two cores whatever the host has: Workers=2 is the widest any
	// workload asks for, and a pinned value keeps runs on different hosts
	// comparable (before Go 1.25 GOMAXPROCS ignores a container's quota).
	runtime.GOMAXPROCS(2)

	if *round != "" {
		if len(chosen) != 1 {
			fatal(fmt.Errorf("-round runs one workload"))
		}
		rr, err := runRound(chosen[0], cfg, *withTrace)
		if err != nil {
			fatal(err)
		}
		if err := writeJSON(*round, rr); err != nil {
			fatal(err)
		}
		return
	}

	start := time.Now()
	sum := &summary{
		Benchmark: "precisetracer-pipeline", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Seed: *seed,
	}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s seed=%d\n", sum.NumCPU, sum.GoMaxProcs, sum.GoVersion, *seed)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	stopSpinners, err := startSpinners(runtime.NumCPU()) // see spin.go
	if err != nil {
		fatal(err)
	}
	for _, w := range chosen {
		res, err := measure(w, cfg, flag.CommandLine)
		if err != nil {
			stopSpinners()
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(os.Stdout, res)
		sum.Workloads = append(sum.Workloads, res)
	}
	stopSpinners()
	sum.WallS = time.Since(start).Seconds()
	if len(chosen) > 1 {
		printMatrix(sum.Workloads)
	}
	fmt.Printf("bench: total wall time %.1fs\n", sum.WallS)
	if *out != "" {
		if err := writeJSON(*out, sum); err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the machine-readable result: the
	// driver's four keys for a single workload, the whole summary otherwise.
	var last any = sum
	if len(chosen) == 1 {
		last = contractLine(sum.Workloads[0])
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// measure runs a workload's rounds, each in a child process (this binary
// with -round) so that neither heap size nor the activity.Syms interner
// nor where the threads happened to land carries from one to the next.
// Only the last round runs the traced pass; a per-layer-only run is that
// round alone.
func measure(w *workload, cfg config, flags *flag.FlagSet) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	n := rounds
	if !cfg.e2e {
		n = 1
	}
	var rs []*roundResult
	for k := 0; k < n; k++ {
		file := filepath.Join(cfg.outDir, fmt.Sprintf("round-%s-%d.json", w.name, k))
		args := []string{"-round", file, "-workload", w.name}
		if cfg.layers && k == n-1 {
			args = append(args, "-with-trace")
		}
		for _, name := range []string{"seed", "seconds", "trace", "passes-scale", "outdir"} {
			args = append(args, "-"+name, flags.Lookup(name).Value.String())
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		rr := new(roundResult)
		if err := json.Unmarshal(data, rr); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		rs = append(rs, rr)
	}
	return combine(w, cfg, rs), nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the driver's result object: end-to-end metrics from an
// untraced run, per-layer metrics from a traced one, both when both ran.
func contractLine(res *result) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.EndToEnd)+len(res.PerLayer))
	for _, group := range []map[string]sample{res.EndToEnd, res.PerLayer} {
		for name, s := range group {
			ms[name] = value{s.Value, s.Unit}
		}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": ms}
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s  (seed %d, %d activities, %d timed passes)\n", res.Workload, res.Seed, res.Activities, res.Passes)
	fmt.Fprintf(w, "   requests_attempted %d  requests_failed %d\n", res.Attempted, res.Failed)
	printGroup := func(defs []metricDef, got map[string]sample) {
		for _, d := range defs {
			s, ok := got[d.Name]
			if !ok {
				continue
			}
			if s.N > 1 {
				fmt.Fprintf(w, "   %-32s %16.4f %-13s q1 %.4f  q3 %.4f  n=%d\n", d.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
			} else {
				fmt.Fprintf(w, "   %-32s %16.4f %s\n", d.Name, s.Value, s.Unit)
			}
		}
	}
	printGroup(endToEnd, res.EndToEnd)
	printGroup(perLayer, res.PerLayer)
}

// printMatrix prints the end-to-end medians of several workloads side by
// side, one row per metric.
func printMatrix(results []*result) {
	fmt.Printf("\n%-18s", "end to end")
	for _, res := range results {
		fmt.Printf(" %14s", res.Workload)
	}
	fmt.Println()
	for _, d := range endToEnd {
		fmt.Printf("%-18s", d.Name)
		for _, res := range results {
			fmt.Printf(" %14.4f", res.EndToEnd[d.Name].Value)
		}
		fmt.Printf("  %s\n", d.Unit)
	}
	fmt.Printf("%-18s", "requests_failed")
	for _, res := range results {
		fmt.Printf(" %14d", res.Failed)
	}
	fmt.Println()
}
