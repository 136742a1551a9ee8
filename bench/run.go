package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// config is one invocation's settings for a single workload.
type config struct {
	seed        int64
	scale       float64       // rubis.Config.Scale; 0.5 except in the smoke test
	budget      time.Duration // -seconds: measure for this long; 0 uses the pass counts
	passesScale float64       // multiplies the default pass counts, never the trace size
	e2e         bool          // report the end-to-end metrics (untraced passes)
	layers      bool          // report the per-layer metrics (traced pass, isolated timings)
	outDir      string        // span files and the rounds' result files go here
	log         io.Writer
}

// rounds: a workload is measured in this many rounds, each a process of
// its own with its own set-up and warm-up, so that setup_s is the median
// of several set-ups and no single process's luck (where its threads and
// pages landed) decides a run. The reported value of every other metric is
// the median over all timed passes of all rounds.
const rounds = 3

// A paced pass is valid while the generator's own lateness is small
// beside what is measured. Its p99 may be at most maxLateP99, or lateShare
// of the pass's median emit lag when that is more: above it the generator,
// not the system, set the emit lag. And no record may go out later than
// maxLateOfHorizon of the seal horizon's wall time: a generator that
// stalled for a horizon catches up in a burst that lets one host's stream
// run a horizon ahead of another's, which breaks the sender-liveness
// promise the horizon stands for and splits requests (one pass in sixty
// on a shared two-core host). An invalid pass is run again, at most
// maxReruns times a round; then the run fails instead of reporting.
const (
	maxLateP99       = 25 * time.Millisecond
	lateShare        = 0.05
	maxLateOfHorizon = 0.75
	maxReruns        = 2
)

// roundResult is what one round hands back to the process that started
// it: per end-to-end metric one value per timed pass.
type roundResult struct {
	Activities int                  `json:"activities"`
	Attempted  int                  `json:"requests_attempted"`
	Failed     int                  `json:"requests_failed"` // of the worst pass
	SetupS     float64              `json:"setup_s"`
	Passes     map[string][]float64 `json:"passes"`
	PerLayer   map[string]sample    `json:"per_layer,omitempty"`
}

// result is one workload's outcome over all its rounds: the contract's
// keys plus what -out and -compare need.
type result struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Seed       int64             `json:"seed"`
	Activities int               `json:"activities"`
	Passes     int               `json:"passes"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"requests_attempted"`
	Failed     int               `json:"requests_failed"`
	EndToEnd   map[string]sample `json:"end_to_end,omitempty"`
	PerLayer   map[string]sample `json:"per_layer,omitempty"`
}

// combine folds a workload's rounds into its result.
func combine(w *workload, cfg config, rs []*roundResult) *result {
	res := &result{Workload: w.name, Why: w.why, Seed: cfg.seed, Activities: rs[0].Activities, Attempted: rs[0].Attempted}
	var setups []float64
	for _, r := range rs {
		setups = append(setups, r.SetupS)
		res.Failed = max(res.Failed, r.Failed)
		res.Passes += len(r.Passes["act_per_s"])
		if r.PerLayer != nil {
			res.PerLayer = r.PerLayer
		}
	}
	res.Correct = res.Failed == 0
	if !cfg.e2e {
		return res
	}
	res.EndToEnd = map[string]sample{"setup_s": summarize(setups, "s")}
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			continue
		}
		var pooled []float64
		for _, r := range rs {
			pooled = append(pooled, r.Passes[d.Name]...)
		}
		res.EndToEnd[d.Name] = summarize(pooled, d.Unit)
	}
	return res
}

// series holds one value per timed pass of a round.
type series struct {
	wall, cpu, actPerS, allocB, allocN, lag50, lag99 []float64
	gcFrac, gcCycles, late99, lateMax, offered       []float64
}

// invalid says why a paced pass does not count, or "" when it does; see
// maxLateP99. It leaves p.late sorted.
func (p *pass) invalid() string {
	if p.late == nil {
		return ""
	}
	q := percentiles(p.late, 0.99, 1)
	if limit := max(float64(maxLateP99), lateShare*p.lagP50*1e6); q[0] > limit {
		return fmt.Sprintf("the generator offered records late (p99 %.1f ms > %.1f ms)", q[0]/1e6, limit/1e6)
	}
	if limit := maxLateOfHorizon * float64(p.w.sealAfter) / pacedCompress; q[1] > limit {
		return fmt.Sprintf("the generator stalled for %.1f ms, more than %.1f ms of the %v horizon", q[1]/1e6, limit/1e6, p.w.sealAfter)
	}
	return ""
}

// add files a valid pass's figures.
func (s *series) add(p *pass) {
	n := float64(len(p.in.trace))
	s.wall = append(s.wall, float64(p.wallNs))
	s.actPerS = append(s.actPerS, n/(float64(p.wallNs)/1e9))
	s.cpu = append(s.cpu, float64(p.spent.cpuNs)/n)
	s.allocB = append(s.allocB, float64(p.spent.allocB)/n)
	s.allocN = append(s.allocN, float64(p.spent.allocN)/n)
	s.lag50, s.lag99 = append(s.lag50, p.lagP50), append(s.lag99, p.lagP99)
	s.gcCycles = append(s.gcCycles, float64(p.spent.gcCycles))
	// The runtime updates its GC CPU estimate when a cycle ends: this is
	// the GC work of the cycles that finished inside the pass, over the
	// pass's whole CPU time.
	s.gcFrac = append(s.gcFrac, p.spent.gcCPU/(float64(p.spent.cpuNs)/1e9))
	if p.late == nil {
		return
	}
	q := percentiles(p.late, 0.99, 1)
	s.late99, s.lateMax = append(s.late99, q[0]/1e6), append(s.lateMax, q[1]/1e6)
	s.offered = append(s.offered, n/(float64(p.fed)/1e9))
}

// runRound sets up, warms up, measures and judges one round of a workload
// in this process; traced says whether this round also runs the traced
// pass and the isolated timings. A returned error means the benchmark
// itself is unusable (an incorrect output, a lost connection, an invalid
// paced pass); failed requests are reported in the result.
func runRound(w *workload, cfg config, traced bool) (*roundResult, error) {
	start := time.Now()
	in, err := setup(w, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	res := &roundResult{Activities: len(in.trace), Attempted: in.truth.Requests(), SetupS: time.Since(start).Seconds()}
	fmt.Fprintf(cfg.log, "%s: %d activities, %d requests, hosts %v, set-up %.2fs\n",
		w.name, len(in.trace), res.Attempted, in.hosts, res.SetupS)

	r := &runner{w: w, in: in, cfg: cfg, res: res}
	// The first pass is 2-3x slower while the heap grows: discard it. The
	// paced workload warms up closed-loop, which reaches the same heap in
	// a tenth of the time.
	warm, err := r.pass(false, w.paced)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	if w.ref == refFirstPass {
		in.refHash = warm.sink.v.h.Sum64()
	}
	// wire-paced's closed-loop warm-up is not the workload (closed-loop
	// skew between the hosts' streams exceeds its horizon): its verdicts
	// do not count.
	if !w.paced {
		res.Failed = warm.failed
	}

	// This round's share of the time or of the pass count. A round that
	// only feeds the per-layer metrics still needs untraced passes, for the
	// tracing overhead and the runtime figures; half the time is enough.
	budget := cfg.budget / rounds
	count := max(1, int(float64(w.passes)*cfg.passesScale/rounds+0.5))
	if !cfg.e2e {
		budget, count = cfg.budget/2, max(1, int(float64(w.passes)*cfg.passesScale/2+0.5))
	}
	var timed series
	begun := time.Now()
	for k := 0; ; k++ {
		if cfg.budget > 0 {
			// Never start a pass that would overrun the budget, but run one.
			if k > 0 && time.Since(begun)+time.Since(begun)/time.Duration(k) > budget {
				break
			}
		} else if k >= count {
			break
		}
		p, err := r.measured(false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		timed.add(p)
	}
	res.Passes = map[string][]float64{
		"act_per_s": timed.actPerS, "cpu_ns_per_act": timed.cpu, "alloc_b_per_act": timed.allocB,
		"emit_lag_p50_ms": timed.lag50, "emit_lag_p99_ms": timed.lag99,
	}
	if !traced {
		return res, nil
	}

	tp, err := r.measured(true)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile(cfg.outDir, w), w.name, tp.id, tp.bufs()...); err != nil {
		return nil, err
	}
	iso, err := measureIsolated(w, in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	res.PerLayer = layerMetrics(w, tp, iso, &timed)
	return res, nil
}

// spanFile is where a workload's traced pass writes its spans.
func spanFile(outDir string, w *workload) string {
	return filepath.Join(outDir, "trace-"+w.name+".json")
}

// runner runs passes of one workload over one input.
type runner struct {
	w      *workload
	in     *input
	cfg    config
	res    *roundResult
	passes int
	reruns int
}

// measured runs one pass of the workload as it is defined and counts its
// failed requests; a pass that turns out invalid is run again.
func (r *runner) measured(traced bool) (*pass, error) {
	for {
		p, err := r.pass(traced, false)
		if err != nil {
			return nil, err
		}
		why := p.invalid()
		if why == "" {
			r.res.Failed = max(r.res.Failed, p.failed) // the worst pass
			return p, nil
		}
		if r.reruns == maxReruns {
			return nil, fmt.Errorf("pass %d invalid: %s", p.id, why)
		}
		r.reruns++
		fmt.Fprintf(r.cfg.log, "  pass %-3d invalid: %s; running it again\n", p.id, why)
	}
}

// pass runs, times and judges one pass.
func (r *runner) pass(traced, closed bool) (*pass, error) {
	w, in := r.w, r.in
	p := &pass{w: w, in: in, id: r.passes, closed: closed, sink: newVerifySink(in.truth, !traced)}
	r.passes++
	if traced {
		// One span per record offered or pushed, a few per graph.
		p.drive = newSpanBuf(time.Time{}, len(in.trace)*9/8+8*in.truth.Requests()+1<<16)
		p.ingest = newSpanBuf(time.Time{}, 8*in.truth.Requests()+1024)
		if w.wire {
			p.probe = newWireProbe(in)
		}
	}
	runtime.GC() // between passes, outside the timed region
	if traced {
		p.heapBase = heapObjectBytes()
	}
	run := runReplay
	if w.wire {
		run = runWire
	}
	if err := run(p); err != nil {
		return nil, fmt.Errorf("pass %d: %w", p.id, err)
	}
	if err := p.check(in.refHash); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.cfg.log, "  pass %-3d %s  %7.1f ms  %6.0f ns cpu/act  %d GC cycles  %d graphs  failed %d",
		p.id, passKind(traced, closed, r.passes == 1), float64(p.wallNs)/1e6,
		float64(p.spent.cpuNs)/float64(len(in.trace)), p.spent.gcCycles, p.sink.v.graphs, p.failed)
	if p.failed > 0 {
		v := p.sink.v
		fmt.Fprintf(r.cfg.log, " (%d requests without a correct graph, %d wrong graphs, %d unreferenced)",
			in.truth.Requests()-v.correct, v.bad, p.unreferenced)
	}
	if len(p.late) > 0 {
		fmt.Fprintf(r.cfg.log, "  generator late by at most %.1f ms", float64(slices.Max(p.late))/1e6)
	}
	fmt.Fprintln(r.cfg.log)
	return p, nil
}

func passKind(traced, closed, first bool) string {
	switch {
	case traced:
		return "traced "
	case first || closed:
		return "warm-up"
	}
	return "timed  "
}
