// Command precisetracer is the offline Correlator CLI: it reads a
// TCP_TRACE activity log (e.g. produced by rubisgen), derives the causal
// path of every request, classifies causal path patterns, and prints the
// component latency breakdown used for performance debugging.
//
// Usage:
//
//	precisetracer -in trace.log
//	precisetracer -in trace.log -window 10ms -patterns -report
//	precisetracer -in trace.log -accuracy          # needs -truth traces
//	precisetracer -in trace.log -dump 3            # show the first CAGs
//	precisetracer -in trace.log -export otlp=spans.ndjson,dot=dots/
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/activity"
	"repro/internal/analysis"
	"repro/internal/cag"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/ranker"
	htmlreport "repro/internal/report"
)

func main() { cli.Main("precisetracer", run) }

func run() error {
	var (
		in        = flag.String("in", "", "merged TCP_TRACE log file")
		inDir     = flag.String("indir", "", "directory of per-host logs (<host>.trace[.gz]); streams with bounded memory")
		window    = flag.Duration("window", 10*time.Millisecond, "sliding time window (§4.1; any value > 0)")
		entry     = flag.String("entryports", "80", "comma-separated first-tier service ports for BEGIN/END classification")
		deny      = flag.String("filter-programs", "", "comma-separated program names to filter as noise (e.g. sshd,rlogind)")
		patterns  = flag.Bool("patterns", true, "print causal path patterns")
		report    = flag.Bool("report", true, "print per-pattern latency percentages")
		dumpN     = flag.Int("dump", 0, "dump the first N CAGs")
		accuracy  = flag.Bool("accuracy", false, "score against ground-truth annotations in the trace")
		paperMode = flag.Bool("paper-exact-noise", false, "use the literal Fig. 5 is_noise predicate")
		skewEst   = flag.Bool("estimate-skew", false, "estimate per-node clock offsets from message edges")
		htmlOut   = flag.String("html", "", "write a self-contained HTML report to this file")
		hops      = flag.Bool("hops", false, "print per-component latency distributions (p50/p95/p99)")
		outliers  = flag.Int("outliers", 0, "show the N slowest requests and their dominant component")
		lint      = flag.Bool("lint", false, "check the trace for integrity problems before correlating")
		shardBy   = flag.String("shardby", "flow", "flow-component partition policy: flow (request epochs) or context (whole context lifetimes)")
	)
	shared := cli.RegisterCorrelator(flag.CommandLine)
	pprofAddr := cli.RegisterPprof(flag.CommandLine)
	flag.Parse()
	if *in == "" && *inDir == "" {
		return cli.Usagef("-in or -indir is required")
	}
	if *window <= 0 {
		return cli.Usagef("-window must be > 0 (got %v)", *window)
	}
	if *dumpN < 0 {
		return cli.Usagef("-dump must be >= 0 (got %d)", *dumpN)
	}
	if *outliers < 0 {
		return cli.Usagef("-outliers must be >= 0 (got %d)", *outliers)
	}

	ports, err := parsePorts(*entry)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	var mode core.ShardMode
	switch *shardBy {
	case "flow":
		mode = core.ShardByFlow
	case "context":
		mode = core.ShardByContext
	default:
		return cli.Usagef("unknown -shardby %q (want flow or context)", *shardBy)
	}
	opts := core.Options{
		Window:          *window,
		EntryPorts:      ports,
		PaperExactNoise: *paperMode,
		ShardBy:         mode,
	}
	exports, err := shared.Apply(&opts)
	if err != nil {
		return err
	}
	if bound, stopPprof, err := cli.StartPprof(*pprofAddr); err != nil {
		return err
	} else if bound != "" {
		defer stopPprof()
		fmt.Fprintf(os.Stderr, "pprof: serving profiles on http://%s/debug/pprof/\n", bound)
	}
	// Registering any sink streams graphs away from Result.Graphs, but
	// the offline CLI's analyses all want the full set — collect them
	// back alongside the export sinks.
	var collect core.Collect
	if exports.Active() {
		opts.Sinks = append(opts.Sinks, &collect)
	}
	if *deny != "" {
		m := make(map[string]bool)
		for _, p := range strings.Split(*deny, ",") {
			m[strings.TrimSpace(p)] = true
		}
		opts.Filter = ranker.AttributeFilter{DenyPrograms: m}.Func()
	}

	var trace []*activity.Activity
	var res *core.Result
	if *inDir != "" {
		res, err = core.New(opts).CorrelateDir(*inDir)
		if err != nil {
			return err
		}
		if *accuracy {
			perHost, err := activity.ReadHostLogs(*inDir)
			if err != nil {
				return err
			}
			trace = activity.Merge(perHost)
		}
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		trace, err = activity.ReadAll(f)
		if err != nil {
			return err
		}
		opts.IPToHost = activity.InferIPToHost(trace)
		if *lint {
			issues := activity.Lint(trace)
			for _, is := range issues {
				fmt.Println("lint:", is)
			}
			if n := len(activity.LintErrors(issues)); n > 0 {
				fmt.Printf("lint: %d errors (correlation may produce deformed CAGs)\n", n)
			} else if len(issues) == 0 {
				fmt.Println("lint: trace is clean")
			}
		}
		res, err = core.New(opts).CorrelateTrace(trace)
		if err != nil {
			return err
		}
	}
	graphs := res.Graphs
	if exports.Active() {
		graphs = collect.Graphs
		if err := exports.Close(); err != nil {
			return err
		}
	}

	fmt.Printf("activities: %d   causal paths: %d   unfinished: %d   correlation time: %v\n",
		res.Activities, len(graphs), res.Unfinished(), res.CorrelationTime.Round(time.Millisecond))
	fmt.Printf("ranker: delivered=%d filtered=%d is_noise=%d swaps=%d forced=%d peak_buffer=%d\n",
		res.Ranker.Delivered, res.Ranker.FilterDropped, res.Ranker.NoiseDropped,
		res.Ranker.Swaps, res.Ranker.ForcedPops, res.Ranker.PeakBuffered)
	fmt.Printf("engine: merged_sends=%d partial_recvs=%d discards(s/r/e)=%d/%d/%d thread_reuse_breaks=%d\n",
		res.Engine.MergedSends, res.Engine.PartialReceives,
		res.Engine.DiscardedSends, res.Engine.DiscardedReceives, res.Engine.DiscardedEnds,
		res.Engine.ThreadReuseBreaks)
	if res.ForcedSeals > 0 || res.LateLinks > 0 {
		// The offline replay honours -sealafter, reproducing a continuous
		// deployment's seals and splits deterministically from a recorded
		// trace.
		fmt.Printf("continuous mode: %d forced seals, %d late links (CAGs may be split; see core.Options.SealAfter)\n",
			res.ForcedSeals, res.LateLinks)
	}
	if res.Shards > 0 {
		// The streaming engine buffers every unsealed component and holds
		// finished CAGs through the watermark; the correlator-state peaks
		// below are per-shard maxima, not the process footprint.
		fmt.Printf("memory estimate: %.2f MB largest-shard correlator state across %d shards (peak buffered %d activities, %d resident vertices; unsealed components stay resident — see -sealafter)\n",
			float64(res.EstimatedBytes())/(1<<20), res.Shards, res.PeakBufferedActivities, res.PeakResidentVertices)
	} else {
		fmt.Printf("memory estimate: %.2f MB (peak buffered %d activities, %d resident vertices)\n",
			float64(res.EstimatedBytes())/(1<<20), res.PeakBufferedActivities, res.PeakResidentVertices)
	}
	if exports.Active() {
		fmt.Print(exports.Summary())
	}

	if *accuracy {
		truth := groundtruth.FromTrace(trace)
		if truth.Requests() == 0 {
			return fmt.Errorf("trace has no ground-truth annotations (generate with rubisgen -truth)")
		}
		fmt.Printf("accuracy: %v\n", truth.Evaluate(graphs))
	}

	if *patterns {
		fmt.Println("\ncausal path patterns:")
		for i, p := range cag.Classify(graphs) {
			fmt.Printf("%3d. %-44s x%d\n", i+1, p.Name, p.Count())
		}
	}

	if *report || *htmlOut != "" {
		reports, err := analysis.Report(graphs)
		if err != nil {
			return err
		}
		if *report {
			fmt.Println("\nlatency percentages per pattern (average causal paths):")
			for _, r := range reports {
				fmt.Printf("  %s\n", r)
			}
		}
		if *htmlOut != "" {
			f, err := os.Create(*htmlOut)
			if err != nil {
				return err
			}
			data := htmlreport.Build("PreciseTracer: "+flagSourceName(*in, *inDir), res, reports, nil)
			if err := htmlreport.Render(f, data); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("\nHTML report written to %s\n", *htmlOut)
		}
	}

	var est *analysis.SkewEstimate
	if *skewEst && len(graphs) > 0 {
		est = analysis.EstimateOffsets(graphs, graphs[0].Root().Ctx.Host)
	}
	if est != nil {
		fmt.Printf("\nestimated clock offsets (relative to %s):\n", est.Reference)
		for host, off := range est.Offsets {
			fmt.Printf("  %-10s %+v\n", host, off)
		}
	}

	if *hops {
		fmt.Println("\ncomponent latency distributions:")
		if est != nil {
			fmt.Println("(skew-corrected)")
		}
		fmt.Print(analysis.HopTable(analysis.HopDistributions(graphs, est)))
	}

	if *outliers > 0 {
		fmt.Printf("\n%d slowest requests:\n", *outliers)
		for i, o := range analysis.Outliers(graphs, *outliers, est) {
			fmt.Printf("%3d. %s\n", i+1, o)
		}
	}

	for i := 0; i < *dumpN && i < len(graphs); i++ {
		fmt.Printf("\nCAG %d (latency %v):\n%s", i, graphs[i].Latency(), cag.Dump(graphs[i]))
		fmt.Print(cag.Timeline(graphs[i], 100))
	}
	return nil
}

func flagSourceName(in, inDir string) string {
	if inDir != "" {
		return inDir
	}
	return in
}

func parsePorts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("entry port %q: %w", part, err)
		}
		out = append(out, p)
	}
	return out, nil
}
