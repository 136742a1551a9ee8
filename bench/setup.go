package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/rubis"
)

// refKind says what a pass's dump hash must equal.
type refKind int

const (
	refCorrelate refKind = iota // core.New(opts).CorrelateTrace on the same trace
	refFirstPass                // the workload's own warm-up pass
	refNone                     // wall-clock flushes decide the seals: verdicts only
)

// workload is one row of the README's workload table. The names are
// fixed: later issues cite them.
type workload struct {
	name string
	why  string

	noise     bool          // rubis.Config.Noise
	sealAfter time.Duration // core.Options.SealAfter (activity time)
	workers   int
	drain     bool // replay: Session.Drain on the stampEvery cadence
	export    bool // OTLP + live monitor + dump sinks ahead of the verify sink
	wire      bool // agents -> collector -> ingest over 127.0.0.1
	paced     bool // open loop on the compressed trace schedule
	passes    int  // default pass count when no -seconds budget is given
	ref       refKind
}

// pacedCompress is how much faster than trace time wire-paced plays its
// records: record i is due at start + (ts_i - ts_0)/pacedCompress.
const pacedCompress = 50

// stampEvery is the closed-loop feeders' clock cadence: the wall time is
// read once per this many records (and replay-cont drains on it — the
// `livemon -indir` cadence).
const stampEvery = 256

var workloads = []*workload{
	{
		name: "replay-close", passes: 20, workers: 1, ref: refCorrelate,
		why: "In-process close-driven replay, Workers=1: the paper's Fig. 9 run and the single-threaded baseline; apply/partition, ranker and engine do all the work.",
	},
	{
		name: "replay-cont", passes: 15, workers: 2, ref: refFirstPass,
		noise: true, sealAfter: time.Second, drain: true,
		why: "In-process continuous replay with noise, SealAfter=1s, Workers=2, Drain every 256: horizon seals, prune, late links, is_noise and the pool run here and idle in replay-close.",
	},
	{
		name: "replay-export", passes: 8, workers: 1, ref: refCorrelate, export: true,
		why: "replay-close plus OTLP, live-monitor and dump sinks: sink encode does most of the work; its difference from replay-close is the sink cost.",
	},
	{
		name: "wire-closed", passes: 15, workers: 2, ref: refCorrelate, wire: true,
		why: "Closed loop over 127.0.0.1, three agents -> collector -> ingest -> close-driven session: binary encode, framing, TCP, pooled decode and the ingest queue on top of replay-close.",
	},
	{
		name: "wire-paced", passes: 3, workers: 2, ref: refNone, wire: true, paced: true,
		sealAfter: 5 * time.Second,
		why:       "Open loop at trace time x50 (about 8% of closed-loop capacity) over the same wiring: throughput is fixed by the schedule, so emission delay, idle CPU and resident state are what can move.",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are the session options every pass of w runs with.
func (w *workload) options(in *input, sinks ...core.GraphSink) core.Options {
	return core.Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   in.ipToHost,
		Workers:    w.workers,
		SealAfter:  w.sealAfter,
		Sinks:      sinks,
	}
}

// closeEarly: close-driven in-process replays close each host right after
// its last record, as core's own offline replay does. Over the wire the
// agents close after the generator has offered everything.
func (w *workload) closeEarly() bool { return !w.wire && w.sealAfter == 0 }

// input is what set-up hands the passes: the generated trace in merged
// timestamp order, and the references the outputs are checked against.
type input struct {
	trace    []*activity.Activity
	hosts    []string // sorted
	hostOf   []uint8  // trace index -> hosts index
	last     []int    // hosts index -> trace index of its last record
	ipToHost map[string]string
	truth    *groundtruth.Truth

	refHash   uint64          // dump-stream hash (refCorrelate; refFirstPass once warmed up)
	decidable map[int64]int32 // END record ID -> index of the record that made its graph decidable
	due       []int64         // paced: ns after the pass start at which record i is due
}

// setup generates the workload's input from the seed and computes its
// references. Everything here is timed as setup_s.
func setup(w *workload, seed int64, scale float64) (*input, error) {
	cfg := rubis.DefaultConfig(300)
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.Noise = w.noise
	res, err := rubis.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("rubis: %w", err)
	}
	// rubis.Result.Trace is host-concatenated, not time-ordered: feeding
	// it as is into a SealAfter session splits most requests.
	trace := res.Trace
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].Timestamp < trace[j].Timestamp })
	if len(trace) == 0 {
		return nil, fmt.Errorf("rubis: empty trace")
	}

	in := &input{trace: trace, ipToHost: res.IPToHost, truth: res.Truth}
	hostIdx := make(map[string]uint8)
	for _, a := range trace {
		if _, ok := hostIdx[a.Ctx.Host]; !ok {
			hostIdx[a.Ctx.Host] = 0
			in.hosts = append(in.hosts, a.Ctx.Host)
		}
	}
	sort.Strings(in.hosts)
	for i, h := range in.hosts {
		hostIdx[h] = uint8(i)
	}
	in.hostOf = make([]uint8, len(trace))
	in.last = make([]int, len(in.hosts))
	for i, a := range trace {
		h := hostIdx[a.Ctx.Host]
		in.hostOf[i] = h
		in.last[h] = i
	}
	if w.paced {
		in.due = make([]int64, len(trace))
		for i, a := range trace {
			in.due[i] = int64(a.Timestamp-trace[0].Timestamp) / pacedCompress
		}
	}

	hash, err := in.reference(w)
	if err != nil {
		return nil, err
	}
	if w.ref == refCorrelate {
		v := newVerifier(in.truth)
		if _, err := core.New(w.options(in, core.GraphSinkFunc(v.check))).CorrelateTrace(trace); err != nil {
			return nil, fmt.Errorf("reference CorrelateTrace: %w", err)
		}
		if v.h.Sum64() != hash {
			return nil, fmt.Errorf("set-up: a session fed push by push emits a different graph stream than CorrelateTrace (%016x vs %016x)", hash, v.h.Sum64())
		}
		if f := v.failed(); f != 0 {
			return nil, fmt.Errorf("set-up: reference CorrelateTrace fails %d of %d requests", f, in.truth.Requests())
		}
		in.refHash = hash
	}
	return in, nil
}

// reference runs the workload's session in process, draining as often as
// emit lag can tell apart, and notes, per emitted graph, the index of the
// record whose push made it decidable (keyed by END record ID) — the
// instant emit lag is measured from. A closed loop reads the clock once
// per stampEvery records, so a finer cadence would buy nothing there and
// costs replay-cont's set-up 1.5 s of seal scans; the paced schedule is
// known per record, and 64 records are 1.1 ms of it. It returns the
// dump-stream hash of what it emitted.
func (in *input) reference(w *workload) (uint64, error) {
	drainEvery := stampEvery
	if w.paced {
		drainEvery = 64
	}
	v := newVerifier(in.truth)
	in.decidable = make(map[int64]int32, in.truth.Requests())
	cur := int32(0)
	sink := core.GraphSinkFunc(func(g *cag.Graph) {
		in.decidable[endID(g)] = cur
		v.check(g)
	})
	sess, err := core.NewSession(w.options(in, sink), in.hosts)
	if err != nil {
		return 0, err
	}
	for i, a := range in.trace {
		cur = int32(i)
		if err := sess.Push(a); err != nil {
			return 0, fmt.Errorf("reference push %d: %w", i, err)
		}
		switch h := in.hostOf[i]; {
		case w.closeEarly() && in.last[h] == i:
			if err := sess.CloseHost(in.hosts[h]); err != nil {
				return 0, err
			}
			sess.Drain()
		case w.sealAfter > 0 && (i+1)%drainEvery == 0:
			sess.Drain()
		}
	}
	sess.Close()
	return v.h.Sum64(), nil
}
