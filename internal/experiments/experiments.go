package experiments

import (
	"fmt"
	"time"

	"repro/internal/stats"

	"repro/internal/activity"
	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ranker"
	"repro/internal/rubis"
)

// sweepClients is the paper's x-axis for Fig. 8/12/13/16.
var sweepClients = []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}

// run executes one RUBiS session at the given scale.
func run(clients int, scale float64, mutate func(*rubis.Config)) (*rubis.Result, error) {
	cfg := rubis.DefaultConfig(clients)
	cfg.Scale = scale
	if mutate != nil {
		mutate(&cfg)
	}
	return rubis.Run(cfg)
}

// correlate runs PreciseTracer over a result's trace.
func correlate(res *rubis.Result, window time.Duration, filter ranker.Filter) (*core.Result, error) {
	return core.New(core.Options{
		Window:     window,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
		Filter:     filter,
	}).CorrelateTrace(res.Trace)
}

// correlateBest runs the correlation several times and returns the result
// whose wall-clock correlation time is smallest — timing tables (Fig. 9,
// 10, 14) otherwise inherit scheduler and GC noise.
func correlateBest(res *rubis.Result, window time.Duration, filter ranker.Filter, reps int) (*core.Result, error) {
	var best *core.Result
	for i := 0; i < reps; i++ {
		out, err := correlate(res, window, filter)
		if err != nil {
			return nil, err
		}
		if best == nil || out.CorrelationTime < best.CorrelationTime {
			best = out
		}
	}
	return best, nil
}

// correlateTrace correlates an explicit (possibly mutated) trace using a
// run's topology.
func correlateTrace(res *rubis.Result, trace []*activity.Activity, window time.Duration) (*core.Result, error) {
	return core.New(core.Options{
		Window:     window,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
	}).CorrelateTrace(trace)
}

// Accuracy reproduces §5.2: path accuracy across workload mixes, client
// counts, window sizes, clock skews and noise. The paper reports 100% with
// no false positives and no false negatives in every configuration.
func Accuracy(scale float64) (*Table, error) {
	t := &Table{
		ID:     "ACC",
		Title:  "path accuracy (§5.2): correct paths / all logged requests",
		Header: []string{"mix", "clients", "window", "skew", "noise", "requests", "accuracy", "FP", "FN"},
	}
	type cfg struct {
		mix     rubis.Mix
		clients int
		window  time.Duration
		skew    time.Duration
		noise   bool
	}
	cases := []cfg{
		{rubis.BrowseOnly, 100, time.Millisecond, time.Millisecond, false},
		{rubis.BrowseOnly, 100, 10 * time.Second, 500 * time.Millisecond, false},
		{rubis.BrowseOnly, 500, 10 * time.Millisecond, 100 * time.Millisecond, true},
		{rubis.BrowseOnly, 1000, time.Millisecond, 500 * time.Millisecond, true},
		{rubis.Default, 100, 10 * time.Millisecond, time.Millisecond, false},
		{rubis.Default, 500, time.Millisecond, 500 * time.Millisecond, true},
		{rubis.Default, 1000, 10 * time.Second, 250 * time.Millisecond, true},
	}
	for _, c := range cases {
		res, err := run(c.clients, scale, func(r *rubis.Config) {
			r.Mix = c.mix
			r.Skew.MaxSkew = c.skew
			r.Skew.DriftPPM = 50
			r.Noise = c.noise
		})
		if err != nil {
			return nil, err
		}
		out, err := correlate(res, c.window, nil)
		if err != nil {
			return nil, err
		}
		rep := res.Truth.Evaluate(out.Graphs)
		t.AddRow(c.mix.String(), fmt.Sprintf("%d", c.clients), c.window.String(),
			c.skew.String(), fmt.Sprintf("%v", c.noise),
			fmt.Sprintf("%d", rep.LoggedRequests),
			fmt.Sprintf("%.4f", rep.PathAccuracy()),
			fmt.Sprintf("%d", rep.FalsePositives()),
			fmt.Sprintf("%d", rep.FalseNegatives()))
	}
	t.Notes = append(t.Notes, "paper: 100% accuracy, no false positives, no false negatives in all configurations")
	return t, nil
}

// Fig8 reproduces "Requests vs concurrent clients": the number of serviced
// requests over the fixed-duration session, linear until saturation.
func Fig8(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Fig8",
		Title:  "requests vs concurrent clients (Browse_Only, fixed duration)",
		Header: []string{"clients", "requests", "throughput(req/s)"},
	}
	var series []float64
	for _, n := range sweepClients {
		res, err := run(n, scale, nil)
		if err != nil {
			return nil, err
		}
		series = append(series, float64(res.Metrics.TotalCompleted))
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.Metrics.TotalCompleted),
			fmt.Sprintf("%.1f", res.Metrics.Throughput()))
	}
	xs := make([]float64, len(sweepClients))
	for i, n := range sweepClients {
		xs[i] = float64(n)
	}
	fit := stats.FitLinear(xs[:8], series[:8]) // 100-800: the linear regime
	t.Notes = append(t.Notes,
		fmt.Sprintf("shape %s   linear fit over 100-800 clients: %s", stats.Sparkline(series), fit),
		"paper: linear in clients until RUBiS saturates near 800 clients")
	return t, nil
}

// Fig9 reproduces "Correlation time vs requests" with a 10 ms window: the
// correlation time is linear in the number of serviced requests.
func Fig9(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Fig9",
		Title:  "correlation time vs requests (window = 10ms)",
		Header: []string{"clients", "requests", "activities", "corr_time", "us/request"},
	}
	for _, n := range sweepClients {
		res, err := run(n, scale, nil)
		if err != nil {
			return nil, err
		}
		out, err := correlateBest(res, 10*time.Millisecond, nil, 3)
		if err != nil {
			return nil, err
		}
		req := res.Metrics.TotalCompleted
		per := 0.0
		if req > 0 {
			per = float64(out.CorrelationTime.Microseconds()) / float64(req)
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", req),
			fmt.Sprintf("%d", len(res.Trace)),
			out.CorrelationTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", per))
	}
	t.Notes = append(t.Notes, "paper: correlation time linear in requests (constant us/request) before saturation")
	return t, nil
}

// fig10Windows is the window sweep of Fig. 10/11 (1ms .. 100s).
var fig10Windows = []time.Duration{
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 10 * time.Second, 100 * time.Second,
}

// Fig10 reproduces "Correlation time vs sliding time window" for 200, 500
// and 800 concurrent clients. One trace per client count is generated once
// and re-correlated with each window.
func Fig10(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Fig10",
		Title:  "correlation time vs sliding window (clients 200/500/800)",
		Header: []string{"window", "c=200", "c=500", "c=800"},
	}
	return windowSweep(t, scale, func(out *core.Result) string {
		return out.CorrelationTime.Round(time.Millisecond).String()
	})
}

// Fig11 reproduces "Memory consumed by the Correlator" across the same
// window sweep: the working set is the ranker's buffered activities plus
// the engine's unfinished CAGs.
func Fig11(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Fig11",
		Title:  "correlator memory vs sliding window (clients 200/500/800)",
		Header: []string{"window", "c=200", "c=500", "c=800"},
	}
	tbl, err := windowSweep(t, scale, func(out *core.Result) string {
		return fmt.Sprintf("%.2fMB", float64(out.EstimatedBytes())/(1<<20))
	})
	if err != nil {
		return nil, err
	}
	tbl.Notes = append(tbl.Notes, "paper: memory grows dramatically once the window covers most of the trace")
	return tbl, nil
}

func windowSweep(t *Table, scale float64, cell func(*core.Result) string) (*Table, error) {
	var results []*rubis.Result
	for _, n := range []int{200, 500, 800} {
		res, err := run(n, scale, nil)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	for _, w := range fig10Windows {
		row := []string{w.String()}
		for _, res := range results {
			out, err := correlateBest(res, w, nil, 3)
			if err != nil {
				return nil, err
			}
			row = append(row, cell(out))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig12 reproduces "The effect on the throughput of RUBiS": tracing enabled
// vs disabled. The paper's max throughput loss is 3.7%.
func Fig12(scale float64) (*Table, error) {
	return overheadSweep(scale, "Fig12", "throughput (req/s), tracing disabled vs enabled",
		func(m *rubis.Metrics) string { return fmt.Sprintf("%.1f", m.Throughput()) },
		func(dis, en *rubis.Metrics) float64 {
			if dis.Throughput() <= 0 {
				return 0
			}
			return 100 * (dis.Throughput() - en.Throughput()) / dis.Throughput()
		}, "max throughput loss", "paper: max overhead 3.7%")
}

// Fig13 reproduces "The effect on the average response time": the paper's
// max increase is below 30%.
func Fig13(scale float64) (*Table, error) {
	return overheadSweep(scale, "Fig13", "avg response time (ms), tracing disabled vs enabled",
		func(m *rubis.Metrics) string {
			return fmt.Sprintf("%.1f", float64(m.AvgResponseTime().Microseconds())/1000)
		},
		func(dis, en *rubis.Metrics) float64 {
			if dis.AvgResponseTime() <= 0 {
				return 0
			}
			return 100 * float64(en.AvgResponseTime()-dis.AvgResponseTime()) / float64(dis.AvgResponseTime())
		}, "max response-time increase", "paper: increase below 30%")
}

func overheadSweep(scale float64, id, title string, cell func(*rubis.Metrics) string,
	overhead func(dis, en *rubis.Metrics) float64, maxLabel, paperNote string) (*Table, error) {
	t := &Table{ID: id, Title: title, Header: []string{"clients", "disable", "enable", "overhead%"}}
	maxOv := 0.0
	for _, n := range sweepClients {
		en, err := run(n, scale, nil)
		if err != nil {
			return nil, err
		}
		dis, err := run(n, scale, func(c *rubis.Config) { c.Tracing = false })
		if err != nil {
			return nil, err
		}
		ov := overhead(dis.Metrics, en.Metrics)
		if ov > maxOv {
			maxOv = ov
		}
		t.AddRow(fmt.Sprintf("%d", n), cell(dis.Metrics), cell(en.Metrics), fmt.Sprintf("%.1f", ov))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%s: %.1f%%", maxLabel, maxOv), paperNote)
	return t, nil
}

// Fig14 reproduces "The overhead of noise tolerance": correlation time with
// and without background noise (rlogin/ssh filtered by program name, the
// MySQL-client noise removed by is_noise), window = 2ms.
func Fig14(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Fig14",
		Title:  "correlation time with noise vs without (window = 2ms)",
		Header: []string{"clients", "no_noise", "noise", "noise_acts", "dropped(filter)", "dropped(is_noise)"},
	}
	filter := ranker.AttributeFilter{
		DenyPrograms: map[string]bool{"sshd": true, "rlogind": true},
	}.Func()
	for _, n := range []int{100, 300, 500, 700, 900} {
		clean, err := run(n, scale, nil)
		if err != nil {
			return nil, err
		}
		cleanOut, err := correlateBest(clean, 2*time.Millisecond, filter, 3)
		if err != nil {
			return nil, err
		}
		noisy, err := run(n, scale, func(c *rubis.Config) { c.Noise = true })
		if err != nil {
			return nil, err
		}
		noisyOut, err := correlateBest(noisy, 2*time.Millisecond, filter, 3)
		if err != nil {
			return nil, err
		}
		rep := noisy.Truth.Evaluate(noisyOut.Graphs)
		if rep.PathAccuracy() != 1.0 {
			t.Notes = append(t.Notes, fmt.Sprintf("WARNING: accuracy under noise at %d clients = %.4f", n, rep.PathAccuracy()))
		}
		t.AddRow(fmt.Sprintf("%d", n),
			cleanOut.CorrelationTime.Round(time.Millisecond).String(),
			noisyOut.CorrelationTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", noisy.NoiseActivities),
			fmt.Sprintf("%d", noisyOut.Ranker.FilterDropped),
			fmt.Sprintf("%d", noisyOut.Ranker.NoiseDropped))
	}
	t.Notes = append(t.Notes, "paper: noise adds modest correlation time; accuracy unaffected")
	return t, nil
}

// Fig15 reproduces "The latency percentages of components": the dominant
// dynamic causal path pattern's component breakdown for 500–800 clients
// with the default MaxThreads=40 (§5.4.1 misconfiguration shooting).
func Fig15(scale float64) (*Table, error) {
	var reports []*analysis.PatternReport
	var labels []string
	for _, n := range []int{500, 600, 700, 800} {
		res, err := run(n, scale, nil)
		if err != nil {
			return nil, err
		}
		out, err := correlate(res, 10*time.Millisecond, nil)
		if err != nil {
			return nil, err
		}
		rep, err := analysis.DominantPattern(out.Graphs, 3)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
		labels = append(labels, fmt.Sprintf("client=%d", n))
	}
	cmp := analysis.Compare(labels, reports)
	t := &Table{
		ID:     "Fig15",
		Title:  "latency percentages of components, MaxThreads=40 (most frequent dynamic pattern)",
		Header: append([]string{"component"}, labels...),
	}
	for j, cat := range cmp.Categories {
		row := []string{cat}
		for i := range cmp.Percent {
			row = append(row, fmt.Sprintf("%.1f%%", cmp.Percent[i][j]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: httpd2java dominates and shifts dramatically with load (46/80/71/60% at 500-800 clients)",
		"diagnosis: the first->second tier interaction is the bottleneck => JBoss MaxThreads misconfiguration")
	return t, nil
}

// Fig16 reproduces "Performance for different MaxThreads": throughput and
// average response time for MaxThreads 40 vs 250.
func Fig16(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Fig16",
		Title:  "throughput and response time for MaxThreads 40 vs 250",
		Header: []string{"clients", "TP_MT40", "TP_MT250", "RT_MT40(ms)", "RT_MT250(ms)"},
	}
	for _, n := range sweepClients {
		mt40, err := run(n, scale, nil)
		if err != nil {
			return nil, err
		}
		mt250, err := run(n, scale, func(c *rubis.Config) { c.MaxThreads = 250 })
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", mt40.Metrics.Throughput()),
			fmt.Sprintf("%.1f", mt250.Metrics.Throughput()),
			fmt.Sprintf("%.1f", float64(mt40.Metrics.AvgResponseTime().Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(mt250.Metrics.AvgResponseTime().Microseconds())/1000))
	}
	t.Notes = append(t.Notes,
		"paper: MaxThreads=250 raises throughput and cuts response time for 500-800 clients;",
		"at 900+ the hardware becomes the new bottleneck")
	return t, nil
}

// fig17Cases are the §5.4.2 injected problems.
var fig17Cases = []struct {
	Name   string
	Faults rubis.Faults
}{
	{"normal", rubis.Faults{}},
	{"EJB_Delay", rubis.Faults{EJBDelay: 40 * time.Millisecond}},
	{"DataBase_Lock", rubis.Faults{DBLock: true, DBLockHold: 4 * time.Millisecond}},
	{"EJB_Network", rubis.Faults{AppNetBandwidth: 1_250_000}},
}

// Fig17 reproduces "Latency percentages of components for abnormal cases":
// normal plus the three injected problems, Default mix.
func Fig17(scale float64) (*Table, error) {
	var reports []*analysis.PatternReport
	var labels []string
	for _, c := range fig17Cases {
		res, err := run(300, scale, func(r *rubis.Config) {
			r.Mix = rubis.Default
			r.Faults = c.Faults
		})
		if err != nil {
			return nil, err
		}
		out, err := correlate(res, 10*time.Millisecond, nil)
		if err != nil {
			return nil, err
		}
		rep, err := analysis.DominantPattern(out.Graphs, 3)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
		labels = append(labels, c.Name)
	}
	cmp := analysis.Compare(labels, reports)
	t := &Table{
		ID:     "Fig17",
		Title:  "latency percentages for normal and injected abnormal cases (Default mix)",
		Header: append([]string{"component"}, labels...),
	}
	for j, cat := range cmp.Categories {
		row := []string{cat}
		for i := range cmp.Percent {
			row = append(row, fmt.Sprintf("%.1f%%", cmp.Percent[i][j]))
		}
		t.Rows = append(t.Rows, row)
	}
	// Run the automated detector (the paper's future-work §7) against the
	// normal case.
	det := analysis.Detector{}
	for i := 1; i < len(reports); i++ {
		findings := det.Diagnose(reports[0], reports[i])
		if len(findings) > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("detector[%s]: %s (%+.1f points)",
				labels[i], findings[0].Category, findings[0].DeltaPoints))
		}
	}
	t.Notes = append(t.Notes,
		"paper: EJB_Delay => java2java 10->40%+; DataBase_Lock => mysqld2mysqld and the DB legs rise;",
		"EJB_Network => the big-payload interactions touching the second tier's NIC rise")
	return t, nil
}

// AblationBaselines quantifies the precision argument of §1/§6: path
// accuracy of PreciseTracer vs the timestamp-trusting naive correlator and
// the WAP5-style probabilistic nesting correlator, across clock skews.
func AblationBaselines(scale float64) (*Table, error) {
	t := &Table{
		ID:     "ABL1",
		Title:  "path accuracy: PreciseTracer vs naive vs probabilistic nesting",
		Header: []string{"skew", "precise", "naive", "nesting"},
	}
	for _, skew := range []time.Duration{0, 100 * time.Millisecond, 500 * time.Millisecond} {
		res, err := run(300, scale, func(c *rubis.Config) { c.Skew.MaxSkew = skew })
		if err != nil {
			return nil, err
		}
		out, err := correlate(res, 10*time.Millisecond, nil)
		if err != nil {
			return nil, err
		}
		precise := res.Truth.Evaluate(out.Graphs).PathAccuracy()

		cls := activity.NewClassifier(rubis.EntryPort)
		classified := make([]*activity.Activity, len(res.Trace))
		for i, a := range res.Trace {
			cp := *a
			cp.Type = cls.Classify(a)
			classified[i] = &cp
		}
		naive := res.Truth.Evaluate(baseline.Naive(classified).Graphs).PathAccuracy()
		nest := res.Truth.Evaluate(baseline.Nesting(classified, baseline.NestingConfig{}).Graphs).PathAccuracy()
		t.AddRow(skew.String(),
			fmt.Sprintf("%.4f", precise), fmt.Sprintf("%.4f", naive), fmt.Sprintf("%.4f", nest))
	}
	t.Notes = append(t.Notes, "extension: the paper argues this gap qualitatively; here it is measured")
	return t, nil
}

// AblationPaperExactNoise compares the liveness-aware is_noise (default)
// with the paper's literal Fig. 5 predicate when the window is far smaller
// than the skew. Both variants run sharded on the streaming engine (the
// shard-aware predicate made exact mode parallel); each shard's window
// dynamics are measured against its own flow's frontier, so unrelated
// noise streams no longer starve a flow's fetches the way the historical
// global pass's shared window did.
func AblationPaperExactNoise(scale float64) (*Table, error) {
	t := &Table{
		ID:     "ABL2",
		Title:  "is_noise variants under window << skew (window=1ms, skew=500ms, with noise)",
		Header: []string{"variant", "accuracy", "noise_dropped", "forced_pops"},
	}
	res, err := run(300, scale, func(c *rubis.Config) {
		c.Noise = true
		c.Skew.MaxSkew = 500 * time.Millisecond
	})
	if err != nil {
		return nil, err
	}
	for _, paperExact := range []bool{false, true} {
		out, err := core.New(core.Options{
			Window:          time.Millisecond,
			EntryPorts:      []int{rubis.EntryPort},
			IPToHost:        res.IPToHost,
			PaperExactNoise: paperExact,
			Workers:         core.ResolveWorkers(0),
		}).CorrelateTrace(res.Trace)
		if err != nil {
			return nil, err
		}
		name := "liveness-aware"
		if paperExact {
			name = "paper-exact"
		}
		rep := res.Truth.Evaluate(out.Graphs)
		t.AddRow(name, fmt.Sprintf("%.4f", rep.PathAccuracy()),
			fmt.Sprintf("%d", out.Ranker.NoiseDropped), fmt.Sprintf("%d", out.Ranker.ForcedPops))
	}
	return t, nil
}

// Spec registers an experiment for the CLI.
type Spec struct {
	ID    string
	Title string
	Run   func(scale float64) (*Table, error)
}

// All lists every reproducible table/figure in paper order.
var All = []Spec{
	{"acc", "path accuracy grid (§5.2)", Accuracy},
	{"fig8", "requests vs clients", Fig8},
	{"fig9", "correlation time vs requests", Fig9},
	{"fig10", "correlation time vs window", Fig10},
	{"fig11", "correlator memory vs window", Fig11},
	{"fig12", "throughput overhead", Fig12},
	{"fig13", "response-time overhead", Fig13},
	{"fig14", "noise tolerance", Fig14},
	{"fig15", "latency percentages vs clients", Fig15},
	{"fig16", "MaxThreads 40 vs 250", Fig16},
	{"fig17", "injected faults", Fig17},
	{"abl1", "baseline accuracy ablation", AblationBaselines},
	{"abl2", "is_noise variant ablation", AblationPaperExactNoise},
	{"abl3", "activity-loss tolerance", AblationActivityLoss},
	{"abl4", "passive skew correction", AblationSkewCorrection},
	{"ext1", "component latency distributions", HopProfile},
	{"ext2", "per-transaction profile", TransactionProfile},
}

// ByID returns the spec with the given ID, or nil.
func ByID(id string) *Spec {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}

// AblationSkewCorrection demonstrates the passive clock-skew remediation
// extension (§3.2 concedes cross-node interaction latencies are skew-
// polluted): raw vs corrected mean httpd2java latency under heavy skew,
// against the truth from an identical run with synchronised clocks.
func AblationSkewCorrection(scale float64) (*Table, error) {
	t := &Table{
		ID:     "ABL4",
		Title:  "passive skew correction: mean httpd2java interaction latency",
		Header: []string{"skew", "raw", "corrected", "true(no-skew run)"},
	}
	truthRun, err := run(200, scale, nil)
	if err != nil {
		return nil, err
	}
	truthOut, err := correlate(truthRun, 10*time.Millisecond, nil)
	if err != nil {
		return nil, err
	}
	trueRep, err := analysis.DominantPattern(truthOut.Graphs, 3)
	if err != nil {
		return nil, err
	}
	trueLat := trueRep.Share("httpd2java").Mean

	for _, skew := range []time.Duration{100 * time.Millisecond, 400 * time.Millisecond} {
		res, err := run(200, scale, func(c *rubis.Config) { c.Skew.MaxSkew = skew })
		if err != nil {
			return nil, err
		}
		out, err := correlate(res, 10*time.Millisecond, nil)
		if err != nil {
			return nil, err
		}
		rep, err := analysis.DominantPattern(out.Graphs, 3)
		if err != nil {
			return nil, err
		}
		raw := rep.Share("httpd2java").Mean

		est := analysis.EstimateOffsets(out.Graphs, "web1")
		corRep, err := analysis.DominantPatternCorrected(out.Graphs, 3, est)
		if err != nil {
			return nil, err
		}
		corrected := corRep.Share("httpd2java").Mean
		t.AddRow(skew.String(),
			raw.Round(time.Microsecond).String(),
			corrected.Round(time.Microsecond).String(),
			trueLat.Round(time.Microsecond).String())
	}
	t.Notes = append(t.Notes,
		"extension: NTP-style minimum-delay estimation over message edges removes the offset;",
		"a few ms of residual bias remains (RECEIVE timestamps are read times, not wire arrivals)")
	return t, nil
}

// HopProfile (extension) prints per-component latency distributions —
// mean, p50, p95, p99 — for the Default mix at 300 clients. Tails localise
// intermittent problems that the paper's averages smear.
func HopProfile(scale float64) (*Table, error) {
	res, err := run(300, scale, func(c *rubis.Config) { c.Mix = rubis.Default })
	if err != nil {
		return nil, err
	}
	out, err := correlate(res, 10*time.Millisecond, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "EXT1",
		Title:  "component latency distributions (Default mix, 300 clients)",
		Header: []string{"component", "mean", "p50", "p95", "p99", "n"},
	}
	for _, d := range analysis.HopDistributions(out.Graphs, nil) {
		t.AddRow(d.Category,
			d.Hist.Mean().Round(time.Microsecond).String(),
			d.Hist.Percentile(0.50).Round(time.Microsecond).String(),
			d.Hist.Percentile(0.95).Round(time.Microsecond).String(),
			d.Hist.Percentile(0.99).Round(time.Microsecond).String(),
			fmt.Sprintf("%d", d.Hist.N()))
	}
	return t, nil
}

// TransactionProfile (extension) prints per-transaction-type throughput and
// latency for the Default mix — the workload-side view RUBiS itself reports
// and the black-box patterns approximate.
func TransactionProfile(scale float64) (*Table, error) {
	res, err := run(300, scale, func(c *rubis.Config) { c.Mix = rubis.Default })
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "EXT2",
		Title:  "per-transaction profile (Default mix, 300 clients)",
		Header: []string{"transaction", "count", "share%", "avg_rt(ms)"},
	}
	total := res.Metrics.TotalCompleted
	for i := range rubis.Transactions {
		tx := &rubis.Transactions[i]
		n := res.Metrics.PerTx[tx.Name]
		if n == 0 {
			continue
		}
		t.AddRow(tx.Name, fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", 100*float64(n)/float64(total)),
			fmt.Sprintf("%.1f", float64(res.Metrics.TxAvgResponseTime(tx.Name).Microseconds())/1000))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("in-window p50/p95/p99 response time: %v / %v / %v",
			res.Metrics.ResponseTimePercentile(0.50).Round(time.Millisecond),
			res.Metrics.ResponseTimePercentile(0.95).Round(time.Millisecond),
			res.Metrics.ResponseTimePercentile(0.99).Round(time.Millisecond)))
	return t, nil
}
