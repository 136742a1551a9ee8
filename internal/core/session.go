package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/ranker"
)

// Session is the online (push-mode) correlator and the one streaming
// correlation engine: activities are pushed as the collection agents
// deliver them, and CAGs come out while the service is still running.
// Every execution mode is a configuration of it; there is no other path.
// The offline Correlate calls replay a recorded input through it
// (replay.go, dir.go), Options.Workers bounds how many goroutines
// correlate one barrier's batch (1 = the sequential configuration, which
// starts none), and seal horizons (global or per host) turn it
// continuous.
//
//	s, _ := core.NewSession(opts, []string{"web1", "app1", "db1"})
//	s.Push(a)        // repeatedly, per arriving record
//	s.Drain()        // emit every CAG currently decidable
//	s.Close()        // end of streams; flush the remainder
//
// Safety: the session never *guesses* — a flow component is only
// correlated once no open stream could still extend it: every host owning
// one of its channel endpoints has closed (CloseHost), or — with a seal
// horizon configured — has advanced its stream past the component's
// horizon. That is the same no-false-positives guarantee as offline mode;
// the cost is that CAG emission lags input by the slower of host closure
// and the configured horizons. Always-on deployments therefore configure
// Options.SealAfter (plus per-host overrides in Options.SealAfterByHost
// for chronically lagging agents) and feed Heartbeat so idle hosts do not
// stall the ordered output.
//
// That includes PaperExactNoise: the Fig. 5 predicate's pending-SEND
// question is answered from each shard's own window buffer, which the
// channel-closure invariant makes equal to the global answer — every SEND
// that could match a RECEIVE shares its Channel and therefore its
// component (see ranker.matchingSendVisible, and assertChanClosure for
// the debug check) — so exact-mode sessions get horizons, heartbeats,
// forced seals and PushBatch like any other.
//
// Pipeline:
//
//	Push ──> incremental flow partition (internal/flow.Incremental):
//	         every activity joins a component as it arrives; components
//	         fuse when a TCP connection or context epoch links them.
//	CloseHost / seal horizon ──> sealing: a component seals when no open
//	         host can extend it (the completion watermark), or — with a
//	         horizon configured — at the push or heartbeat that carries
//	         the activity clock past its deadline: its newest record
//	         plus the largest horizon of the hosts that could still
//	         extend it. Which components exist is thus a function of the
//	         record stream alone, whatever the Drain cadence.
//	Drain/CloseHost/Close ──> dispatch: the components sealed since the
//	         last barrier are correlated there and then, each by the
//	         unmodified sequential ranker+engine pass (correlatePass),
//	         no shared state: stage 1 takes them in turn, helped by up
//	         to Workers−1 goroutines started for the batch, and absorbs
//	         the results in creation order.
//	Drain/Close ──> the watermark emitter pops finished CAGs off a
//	         min-heap in END-timestamp order while they end below the
//	         watermark: the oldest BEGIN resident in any component, and
//	         each open host's push bound. A BEGIN-less component (a
//	         never-idle noise connection) holds nothing back. Last, Drain
//	         rolls such a component: its aged records are correlated as
//	         a prefix, the rest stays.
//
// The result is byte-identical to the historical sequential correlator
// for the same per-host input order on well-formed traces
// (TestParallelSessionEquivalence, TestParallelEquivalence): the
// per-component passes are exact because components are closed under the
// engine's two lookup relations, and the emitter's order is the
// sequential completion order.
//
// With a seal horizon the session runs continuously: a component idle
// past its horizon is force-sealed as soon as the activity clock (never
// wall time) passes its deadline, so Drain decides only when its graphs
// leave, never which graphs exist; the watermark treats quiet open
// streams as bounded by their own host horizons, and dispatched
// components' flow bookkeeping is tombstoned then pruned — memory stays
// bounded by recently-active components even if CloseHost is never
// called. A never-idle component holding no BEGIN (a §5.3.3 noise
// connection) rolls instead (rollPrefix), so it holds about two horizons
// of records, not everything since it opened. See Options.SealAfter for
// the no-guess tradeoff this accepts.
//
// Contributor tracking relies on Options.IPToHost covering every declared
// host's addresses (the same map the ranker's noise reasoning needs): an
// activity can only extend a component from a host owning one of the
// component's channel endpoints. Unresolvable endpoints are treated as
// untraced, exactly like the ranker treats them.
//
// Identity handling: records are bound (activity.Bind) on the way in, so
// every internal table — host streams, component buffers, endpoint
// resolution — keys on dense symbols and packed keys, never on strings.
// Host names reappear only where output order or reporting needs them
// (correlateComponent's sorted sources, error messages).
//
// Sessions are not safe for concurrent use: Push/Drain/CloseHost/
// Heartbeat/Close must be called from one goroutine (with Workers > 1,
// the barriers parallelise internally).
type Session struct {
	opts    Options
	workers int           // most goroutines correlating one batch (>= 1)
	rcfg    ranker.Config // every shard's ranker configuration
	cls     *activity.Classifier
	inc     *flow.Incremental

	hosts map[activity.Sym]*sessHost

	// ipHost resolves a channel endpoint's interned IP straight to the
	// owning host's symbol — Options.IPToHost precomputed once, so the
	// two endpoint resolutions every push performs are integer map hits
	// instead of string lookups.
	ipHost map[activity.Sym]activity.Sym

	comps      map[int32]*sessComponent // keyed by current union-find root
	nextCompID int

	// runFree and compFree are stage 1's recycling: run arrays come back
	// when a run outgrows one, when two runs merge and when a component's
	// result is absorbed; component structs when one fuses away or is
	// absorbed. Only stage 1 touches either — absorption waits until every
	// helper is done with the batch.
	runFree  runPool
	compFree []*sessComponent

	// chanOwner (debug only) maps each connection seen to the union-find
	// node it first filed under, for the shard-closure assertion; nil
	// unless debugShardClosure is set.
	chanOwner map[activity.Channel]int32

	// slab is the block allocator for the per-push buffered copy: pushes
	// carve records out of slabSize blocks instead of allocating one
	// Activity each. A block is reclaimed when every graph referencing
	// its records has been released — acceptable grouping, since records
	// of one block arrive together and seal together.
	slab []activity.Activity

	// deadlines queues every live component with a bounded horizon by
	// the activity time past which it is force-sealed (sealExpired).
	// Entries are revalidated lazily when they reach the top.
	deadlines minHeap[deadline, *deadline]

	// Correlation. Stage 1 is the session goroutine: apply + flow
	// partition + the seal decisions (which MUST stay on deterministic
	// event-stream points — Seal tombstones feed back into how later
	// records partition). Sealed components wait on unsent until the next
	// barrier (Drain, CloseHost, Close) correlates them as one batch
	// (dispatch): stage 1 and its helpers take indexes into unsent off
	// next, each writing results[i] with its own scratch[k]; scratch[0] is
	// stage 1's, which rolled prefixes (rollStale) use too. helpers is
	// what stage 1 waits on before it absorbs.
	unsent  []*sessComponent // sealed, not yet correlated
	results []sessShardResult
	next    atomic.Int64
	helpers sync.WaitGroup
	scratch []*shardScratch

	finished graphHeap    // correlated, held back by the watermark
	emitted  []*cag.Graph // released (when no sink is registered)

	// sinks is the emission chain: a copy of Options.Sinks, extended by
	// AddSink before the first Push. Empty, the session accumulates into
	// emitted.
	sinks []GraphSink

	pushed      int
	pendingActs int
	uncounted   int // shard deliveries not yet reported by Drain

	// Continuous-mode state (any seal horizon configured). maxTs is the
	// newest timestamp pushed or heartbeated on any stream — the activity
	// clock every horizon is measured against. maxHorizon is the largest
	// configured horizon: the prune lag for components whose own horizon
	// is unbounded, wide enough for any straggler the liveness bounds
	// admit.
	continuous  bool
	maxTs       time.Duration
	maxHorizon  time.Duration
	forcedSeals int

	rstats   ranker.Stats
	estats   engine.Stats
	peakVert int
	shards   int
	// workTime is the wall-clock time this session spent correlating —
	// the time spent in its barriers (correlation, absorption, emission),
	// which is the shard work's critical path, not the sum of concurrent
	// shard times. It matches the historical sequential session's
	// drain-time accounting.
	workTime time.Duration

	closed bool
	final  *Result
}

// NewSession opens an online session for the given traced hosts. Every
// host that will produce activities must be declared up front (the
// completion watermarks track per-host progress, and the safety logic
// needs to know which streams exist).
func NewSession(opts Options, hosts []string) (*Session, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(opts.EntryPorts) == 0 {
		return nil, ErrNoEntryPorts
	}
	if opts.Window <= 0 {
		opts.Window = 10 * time.Millisecond
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: session needs at least one host")
	}
	return newSession(opts, hosts), nil
}

// newSession opens a session over validated options, as NewSession and
// the offline replays do.
func newSession(opts Options, hosts []string) *Session {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	s := &Session{
		opts:       opts,
		sinks:      slices.Clone(opts.Sinks),
		workers:    workers,
		rcfg:       opts.rankerConfig(),
		cls:        activity.NewClassifier(opts.EntryPorts...),
		hosts:      make(map[activity.Sym]*sessHost, len(hosts)),
		comps:      make(map[int32]*sessComponent),
		continuous: opts.continuousConfigured(),
		maxHorizon: opts.maxHorizon(),
	}
	s.inc = flow.NewIncremental(flow.ModeFlow, s.mergeComponents)
	if s.continuous {
		// Continuous mode retires dispatched components; the close-driven
		// mode never prunes and skips the reverse-index tracking cost.
		s.inc.EnablePruning()
	}
	for _, h := range hosts {
		sym := activity.Syms.Intern(h)
		if s.hosts[sym] == nil {
			s.hosts[sym] = &sessHost{
				name:    activity.Syms.Name(sym),
				open:    true,
				horizon: opts.horizonFor(h),
			}
		}
	}
	if len(opts.IPToHost) > 0 {
		s.ipHost = make(map[activity.Sym]activity.Sym, len(opts.IPToHost))
		for ip, hn := range opts.IPToHost {
			s.ipHost[activity.Syms.Intern(ip)] = activity.Syms.Intern(hn)
		}
	}
	return s
}

// AddSink appends one sink to the session's emission chain (see
// Options.Sinks). It must be called before the first Push: the chain is
// not synchronized against in-flight emission. Registering any sink
// switches the session to streaming — Result.Graphs stays empty.
func (s *Session) AddSink(sink GraphSink) {
	s.sinks = append(s.sinks, sink)
}
