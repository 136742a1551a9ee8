// Package core exposes PreciseTracer's public API: the Correlator that
// turns merged TCP_TRACE activity streams into Component Activity Graphs.
//
// The Correlator composes the two modules of Fig. 2:
//
//	TCP_TRACE logs ──> Ranker (candidate selection, §4.1)
//	                     │ candidates
//	                     ▼
//	                   Engine (CAG construction, §4.2) ──> CAGs
//
// plus the §3.1 transformation step that classifies frontier RECEIVE/SEND
// records into BEGIN/END activities.
//
// Every execution mode is the same streaming pipeline, the Session (see
// session.go and stream.go): the offline CorrelateTrace/CorrelateDir calls
// replay their input into it — push every activity, close every host,
// drain.
//
// Typical offline use:
//
//	trace, _ := activity.ReadAll(f)
//	res, _ := core.New(core.Options{Window: 10 * time.Millisecond,
//	    EntryPorts: []int{80}, IPToHost: topo}).CorrelateTrace(trace)
//	patterns := cag.Classify(res.Graphs)
package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
	"repro/internal/ranker"
)

// Options configures a Correlator.
type Options struct {
	// Window is the ranker's sliding time window (§4.1). Any positive
	// value preserves correctness; it trades buffering memory against
	// fetch batching. Defaults to 10ms, the setting of §5.3.1.
	Window time.Duration

	// EntryPorts are the first-tier service ports used by the §3.1
	// BEGIN/END transformation (e.g. 80). Required for CAGs to start and
	// finish.
	EntryPorts []int

	// IPToHost maps every traced node's IP addresses to its hostname. Used
	// by the ranker to reason about whether a matching SEND can still
	// arrive, and by the streaming engine to track which hosts can still
	// extend a flow component. IPs absent from the map are treated as
	// untraced (clients, noise sources).
	IPToHost map[string]string

	// Filter drops activities at fetch time (attribute-based noise
	// filtering, §4.3). Optional.
	Filter ranker.Filter

	// PaperExactNoise switches is_noise to the exact Fig. 5 predicate; see
	// ranker.Config. Like every other mode it runs on the streaming
	// engine: the predicate's pending-SEND question is served per shard,
	// which equals the global answer because the flow partition never
	// splits a Channel across components (the channel-closure invariant —
	// see ranker.matchingSendVisible). Exact mode therefore shards,
	// accepts seal horizons and heartbeats, and scales with Workers. For
	// ablation only: the default predicate additionally consults sender
	// liveness, which keeps accuracy at 100% under clock skew.
	PaperExactNoise bool

	// Sinks is the emission chain: every finished CAG is delivered to
	// each sink in order, from one goroutine, in deterministic
	// END-timestamp order, released incrementally as the completion
	// watermark advances; the offline replay fires the chain while
	// draining, before the Correlate call returns. Any registered sink
	// streams the output instead of accumulating it (Result.Graphs stays
	// empty), which bounds the output side for long traces; use a Collect
	// sink to keep the batch view alongside streaming consumers. The
	// session copies the slice at construction. See GraphSink for the
	// ownership contract.
	Sinks []GraphSink

	// Workers bounds how many goroutines correlate the sealed flow
	// components of one barrier (Drain, CloseHost, Close). 0 or 1 is the
	// sequential configuration: the calling goroutine correlates every
	// component itself and no goroutine is started, byte-identical to the
	// original single-threaded pass on well-formed traces. Larger values
	// start up to Workers−1 helpers per barrier, which correlate
	// independent components concurrently (see internal/flow for the shard
	// key: TCP connections closed over request epochs) and exit when the
	// batch is done. Negative values are rejected.
	// CLIs mapping a "0 = all CPUs" flag should resolve it with
	// ResolveWorkers.
	Workers int

	// SealAfter, when positive, turns the session into a continuous
	// correlator: a flow component whose newest activity is more than
	// SealAfter older than the newest timestamp pushed anywhere (activity
	// time, never wall clock — replay stays deterministic) is sealed by
	// the push or heartbeat that ages it so, even though its hosts are
	// still open; the next Drain correlates it and the watermark emitter
	// releases its CAGs. Which components exist therefore follows from
	// the pushed stream alone; the Drain cadence decides only when their
	// graphs leave. Each such seal is counted in Result.ForcedSeals. The
	// sealed component's flow bookkeeping is tombstoned at the seal and
	// pruned one further horizon after its dispatch, so a forever-open
	// Session's memory is bounded by the
	// components active within ~2×SealAfter, not by every connection ever
	// seen. A component that never idles but holds no BEGIN (a noise
	// connection, which can root no CAG) is rolled rather than sealed:
	// once its oldest record is 2×SealAfter old, Drain correlates every
	// record older than SealAfter as a prefix and keeps the rest, without
	// counting a forced seal or a shard.
	//
	// The price is the no-guess guarantee: a forced seal asserts that no
	// open stream will deliver an activity older than SealAfter behind the
	// global maximum (a sender-liveness bound the agents must honour). An
	// activity that violates it is a late link — it starts a fresh
	// component (possibly splitting its request's CAG) and is counted in
	// Result.LateLinks rather than silently resurrecting a freed shard;
	// the emitted stream can then also regress in END-timestamp order,
	// which live.Monitor surfaces via OutOfOrder.
	//
	// 0 (the default) keeps sealing purely close-driven: output and
	// behaviour are byte-identical to a Session without the option.
	// Offline Correlate calls honour it too: a recorded trace reproduces
	// the continuous deployment's seals and splits; the replay drains on
	// a fixed cadence, which fixes its LateLinks count as well (prunes
	// are scheduled at dispatch, so that count follows the cadence).
	SealAfter time.Duration

	// SealAfterByHost overrides SealAfter per host: a chronically lagging
	// agent can be given a longer sender-liveness bound without forcing
	// the whole deployment to choose between latency and split CAGs. A
	// component's effective horizon is the largest horizon of the hosts
	// that can still extend it, so one lagging host extends only its own
	// components' deadlines; components it cannot touch still seal on the
	// shorter default. A host mapped here must have a positive horizon;
	// hosts absent from the map use SealAfter (0 = close-driven only, and
	// a component touching such a host never force-seals).
	//
	// The watermark honours the same per-host bounds: a quiet open host
	// holds back emission by at most its own horizon. Pair long horizons
	// with Session.Heartbeat so a healthy-but-idle host does not delay
	// the ordered output stream.
	SealAfterByHost map[string]time.Duration
}

// validate rejects option values that would silently misbehave. It is
// called by New (surfaced from the Correlate methods, keeping the
// chainable constructor) and by NewSession.
func (o *Options) validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0 (got %d); use ResolveWorkers for CLI-style flags", o.Workers)
	}
	if o.SealAfter < 0 {
		return fmt.Errorf("core: SealAfter must be >= 0 (got %v)", o.SealAfter)
	}
	for h, d := range o.SealAfterByHost {
		if h == "" {
			return fmt.Errorf("core: SealAfterByHost contains an empty host name")
		}
		if d <= 0 {
			return fmt.Errorf("core: SealAfterByHost[%q] must be > 0 (got %v); omit the host to keep the default", h, d)
		}
	}
	return nil
}

// continuousConfigured reports whether any seal horizon is set — the
// switch that enables forced seals, tombstoning and pruning.
func (o *Options) continuousConfigured() bool {
	return o.SealAfter > 0 || len(o.SealAfterByHost) > 0
}

// horizonFor returns host's effective seal horizon (0 = none: the host's
// components seal only when every contributing host closes).
func (o *Options) horizonFor(host string) time.Duration {
	if d, ok := o.SealAfterByHost[host]; ok {
		return d
	}
	return o.SealAfter
}

// rankerConfig is the one translation of the options into the ranker's
// knobs — every ranker a session builds uses it.
func (o *Options) rankerConfig() ranker.Config {
	return ranker.Config{
		Window:          o.Window,
		IPToHost:        o.IPToHost,
		Filter:          o.Filter,
		PaperExactNoise: o.PaperExactNoise,
	}
}

// maxHorizon returns the largest configured horizon, the conservative
// prune lag for components whose own horizon is unbounded.
func (o *Options) maxHorizon() time.Duration {
	h := o.SealAfter
	for _, d := range o.SealAfterByHost {
		if d > h {
			h = d
		}
	}
	return h
}

// ResolveWorkers maps a CLI-style worker-count flag onto Options.Workers:
// 0 means "all CPUs" (GOMAXPROCS), negatives mean sequential, positives
// pass through. Options.Workers itself treats 0 as sequential so that the
// zero value of Options keeps the original single-threaded behaviour;
// this helper is the one place the friendlier flag convention lives.
func ResolveWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 0 {
		return 1
	}
	return n
}

// ParseSealAfterSpec parses a CLI -sealafter specification: either one
// duration applying to every host ("50ms"), or a comma-separated list of
// host=duration overrides with an optional bare duration as the default
// ("50ms,db1=500ms"). Per-host horizons must be positive; the default
// must be non-negative (0 = close-driven sealing only).
func ParseSealAfterSpec(spec string) (time.Duration, map[string]time.Duration, error) {
	var global time.Duration
	var perHost map[string]time.Duration
	seenGlobal := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		host, val, isHost := strings.Cut(part, "=")
		if !isHost {
			if seenGlobal {
				return 0, nil, fmt.Errorf("sealafter: more than one default duration in %q", spec)
			}
			d, err := time.ParseDuration(part)
			if err != nil {
				return 0, nil, fmt.Errorf("sealafter: bad duration %q: %w", part, err)
			}
			if d < 0 {
				return 0, nil, fmt.Errorf("sealafter: default duration must be >= 0 (got %v)", d)
			}
			global, seenGlobal = d, true
			continue
		}
		host = strings.TrimSpace(host)
		if host == "" {
			return 0, nil, fmt.Errorf("sealafter: empty host in %q", part)
		}
		d, err := time.ParseDuration(strings.TrimSpace(val))
		if err != nil {
			return 0, nil, fmt.Errorf("sealafter: bad duration for host %s: %w", host, err)
		}
		if d <= 0 {
			return 0, nil, fmt.Errorf("sealafter: horizon for host %s must be > 0 (got %v)", host, d)
		}
		if perHost == nil {
			perHost = make(map[string]time.Duration)
		}
		if _, dup := perHost[host]; dup {
			return 0, nil, fmt.Errorf("sealafter: host %s listed twice", host)
		}
		perHost[host] = d
	}
	return global, perHost, nil
}

// Result is the outcome of a correlation run.
type Result struct {
	// Graphs holds the finished CAGs in completion order (empty when
	// streaming to Sinks).
	Graphs []*cag.Graph

	// CorrelationTime is the wall-clock time spent ranking + constructing —
	// the quantity plotted in Fig. 9, 10 and 14.
	CorrelationTime time.Duration

	// Activities is the number of input records offered to the ranker
	// (after classification, before filtering).
	Activities int

	Ranker ranker.Stats
	Engine engine.Stats

	// PeakBufferedActivities and PeakResidentVertices drive the Fig. 11
	// memory accounting: the ranker's buffer plus the engine's unfinished
	// CAGs dominate the Correlator's footprint. These are the largest
	// single shard's peaks.
	PeakBufferedActivities int
	PeakResidentVertices   int

	// Shards is the number of flow components correlated by the streaming
	// engine. Every mode shards (0 only for empty input).
	Shards int

	// ForcedSeals counts components sealed by a SealAfter/SealAfterByHost
	// activity-time horizon while their hosts were still open — each one
	// an emission the close-driven rule alone would have held back, and a
	// point where the no-guess guarantee was traded for liveness. Always
	// 0 when no horizon is configured.
	ForcedSeals int

	// LateLinks counts activities that genuinely linked to an already
	// force-sealed component — arrived on one of its connections, or
	// continued its context mid-request (within the tombstone window) —
	// and were detached onto a fresh component instead of resurrecting
	// the dispatched shard. New requests beginning on reused idle
	// threads are not counted. A non-zero value means dispatched work
	// kept producing activity — with persistent connections a structural
	// effect of sealing per activity-idleness, and in the worst case a
	// sender-liveness violation splitting CAGs; see Options.SealAfter.
	LateLinks int
}

// EstimatedBytes approximates the correlator state's peak working-set size
// from its two dominant populations. The per-item constants approximate
// the in-memory size of an Activity record and a CAG vertex with
// bookkeeping.
//
// The figure describes one correlation pass's state (the Fig. 11
// accounting): for streaming-engine runs the peaks are per-shard maxima,
// and the engine additionally buffers every unsealed component's
// activities, so this estimate undercounts the process footprint unless a
// seal horizon keeps components short-lived.
func (r *Result) EstimatedBytes() int64 {
	const activityBytes = 192
	const vertexBytes = 256
	return int64(r.PeakBufferedActivities)*activityBytes + int64(r.PeakResidentVertices)*vertexBytes
}

// Unfinished returns the number of CAGs begun but never completed —
// non-zero only under activity loss, truncated traces, or forced seals
// splitting a request.
func (r *Result) Unfinished() int {
	return int(r.Engine.Begins - r.Engine.Finished)
}

// Correlator is the reusable façade. Each call to CorrelateTrace or
// CorrelateDir runs an independent pipeline instance.
type Correlator struct {
	opts Options
	err  error // deferred Options validation failure
}

// New returns a Correlator with the given options. Invalid options are
// reported by the Correlate methods (the constructor stays chainable);
// NewSession reports them directly.
func New(opts Options) *Correlator {
	err := opts.validate()
	if opts.Window <= 0 {
		opts.Window = 10 * time.Millisecond
	}
	return &Correlator{opts: opts, err: err}
}

// ErrNoEntryPorts reports a configuration that can never produce a CAG.
var ErrNoEntryPorts = errors.New("core: no entry ports configured; no request can begin")

// CorrelateTrace classifies and correlates a merged multi-node trace. The
// input slice is not modified; classification happens on shallow copies.
//
// The trace is replayed through the streaming engine in trace order
// (push, close every host, drain) — with a seal horizon configured the
// pushes force-seal exactly as a continuous deployment's would, and the
// replay drains on a fixed cadence to bound what it holds.
func (c *Correlator) CorrelateTrace(trace []*activity.Activity) (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(c.opts.EntryPorts) == 0 {
		return nil, ErrNoEntryPorts
	}
	return c.replayTrace(trace), nil
}
