package core

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/ranker"
	"repro/internal/ring"
)

// streamSession is the one streaming correlation engine. Every execution
// mode is a configuration of it — there is no other path: the online
// Session pushes live records into it, the offline Correlate calls replay
// a recorded input through it (replay.go), Workers sizes its correlation
// pool (1 = the sequential configuration), and seal horizons (global or
// per host) turn it continuous. That includes the PaperExactNoise
// ablation: the Fig. 5 predicate's pending-SEND question is answered from
// each shard's own window buffer, which the channel-closure invariant
// makes equal to the global answer — every SEND that could match a
// RECEIVE shares its ChanKey and therefore its component (see
// ranker.matchingSendVisible, and assertChanClosure below for the debug
// check).
//
// Pipeline:
//
//	Push ──> incremental flow partition (internal/flow.Incremental):
//	         every activity joins a component as it arrives; components
//	         fuse when a TCP connection or context epoch links them.
//	CloseHost / seal horizon ──> sealing: a component seals when no open
//	         host can extend it (the completion watermark), or — with a
//	         horizon configured — when it has idled past the largest
//	         horizon of the hosts that could still extend it.
//	workers ──> each sealed component runs the unmodified sequential
//	         ranker+engine pass (Correlator.drive), no shared state.
//	Drain/Close ──> the watermark emitter pops finished CAGs off a
//	         min-heap in END-timestamp order while they end below the
//	         watermark: the oldest BEGIN resident in any component, and
//	         each open host's push bound. A BEGIN-less component (a
//	         never-idle noise connection) holds nothing back.
//
// The result is byte-identical to the historical sequential correlator
// for the same per-host input order on well-formed traces
// (TestParallelSessionEquivalence, TestParallelEquivalence): the
// per-component passes are exact because components are closed under the
// engine's two lookup relations, and the emitter's order is the
// sequential completion order.
//
// With a seal horizon the session additionally runs continuously: Drain
// force-seals components idle past their horizon (against the activity
// clock, never wall time), the watermark treats quiet open streams as
// bounded by their own host horizons, and dispatched components' flow
// bookkeeping is tombstoned then pruned — memory stays bounded by
// recently-active components even if CloseHost is never called.
// Per-host horizons (Options.SealAfterByHost) let one chronically
// lagging agent extend only its own components' deadlines; Heartbeat
// lets an idle-but-healthy agent advance the watermark without traffic.
// See Options.SealAfter for the no-guess tradeoff this accepts.
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
type streamSession struct {
	opts    Options
	workers int         // normalized pool size (>= 1)
	drv     *Correlator // sequential driver for sealed components
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

	// chanOwner (debug only) maps each connection seen to the union-find
	// node it first filed under, for the shard-closure assertion; nil
	// unless debugShardClosure is set.
	chanOwner map[activity.ChanKey]int32

	// slab is the block allocator for the per-push buffered copy: pushes
	// carve records out of slabSize blocks instead of allocating one
	// Activity each. A block is reclaimed when every graph referencing
	// its records has been released — acceptable grouping, since records
	// of one block arrive together and seal together.
	slab []activity.Activity

	// Pool plumbing. Stage 1 is the session goroutine: apply + flow
	// partition + the seal decisions (which MUST stay on deterministic
	// event-stream points — Seal tombstones feed back into how later
	// records partition). Sealed components move to the worker pool
	// through the jobs ring in batches; each worker appends its shard
	// results to colBuf under colMu, so workers never stall on a busy
	// stage 1. Stage 1 folds them in via harvest (non-blocking) or settle
	// (the Drain/Close barrier).
	sealReady  []*sessComponent // scratch for the per-drain seal scans
	jobs       *ring.Ring[*sessComponent]
	wg         sync.WaitGroup // workers
	dispatched int            // stage-1 only: components pushed to jobs

	colMu      sync.Mutex
	colReady   sync.Cond         // collected reached settleAt; waiter: settle
	collected  int               // shard results landed (guarded by colMu)
	settleAt   int               // the count settle waits for (guarded by colMu)
	colBuf     []sessShardResult // landed, awaiting stage-1 absorption
	colScratch []sessShardResult // harvest's swap buffer

	finished graphHeap    // correlated, held back by the watermark
	emitted  []*cag.Graph // released (when not streaming via OnGraph/Sinks)

	// deliver is the fused emission chain (Options.OnGraph + every
	// registered sink), nil when the session accumulates into emitted.
	// Rebuilt by AddSink, which must run before the first Push.
	deliver func(*cag.Graph)

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
	// the time blocked in settle/harvest/emit, which is the shard work's
	// critical path, not the sum of concurrent shard times. It matches
	// the historical sequential session's drain-time accounting.
	workTime time.Duration

	closed bool
	final  *Result
}

// slabSize is how many buffered-copy records one slab block holds.
const slabSize = 512

// workerPullBatch is how many sealed components one worker takes per
// jobs-ring wakeup. PopBatch is adaptive — a batch only forms under
// backlog — so this caps amortization, it never delays a lone seal.
const workerPullBatch = 8

// copyRec copies one record into the session's slab. The returned copy
// is owned by the session (component buffers, then CAG vertices).
func (s *streamSession) copyRec(a *activity.Activity) *activity.Activity {
	if len(s.slab) == 0 {
		s.slab = make([]activity.Activity, slabSize)
	}
	cp := &s.slab[0]
	s.slab = s.slab[1:]
	*cp = *a
	return cp
}

// sessHost is one declared host's stream state.
type sessHost struct {
	name    string // interned canonical name, for errors and source labels
	open    bool
	any     bool // has pushed or heartbeated at least once
	last    time.Duration
	seq     uint64
	horizon time.Duration // effective seal horizon; 0 = close-driven only
}

// pushRec pairs an activity with its per-host push sequence number, so
// component fusion can interleave equal-timestamp records in push order —
// the order the per-host input streams preserve.
type pushRec struct {
	a   *activity.Activity
	seq uint64
}

// hostRun is one host's (timestamp, push-sequence)-ordered buffer within
// a component. Components touch a handful of hosts, so a flat slice with
// linear host lookup beats a map: no per-component map allocation, and
// the runs are iterated far more often than they are searched.
type hostRun struct {
	host activity.Sym
	recs []pushRec
}

// sessComponent is one growing flow component of the online partition.
type sessComponent struct {
	id       int           // creation order: deterministic ordering fallback
	minBegin time.Duration // oldest buffered BEGIN (noBound if none): the watermark bound
	maxTs    time.Duration // newest member: the staleness measure
	size     int
	runs     []hostRun      // buffered records, one run per contributing host
	contrib  []activity.Sym // declared hosts that may still extend it
	sealed   bool
	forced   bool  // sealed by a horizon, not by host closure
	late     bool  // received a straggler that late-linked off a sealed shard
	root     int32 // current union-find root

	// runs0 and contrib0 are inline backing storage: most components
	// touch one or two hosts, so the slices usually never leave the
	// struct (same trick as cag.Vertex's inline record storage).
	runs0    [2]hostRun
	contrib0 [4]activity.Sym
}

// noBound is the minBegin of a component holding no BEGIN, and the
// watermark when nothing bounds it.
const noBound = time.Duration(math.MaxInt64)

func newSessComponent(id int, ts time.Duration, root int32) *sessComponent {
	c := &sessComponent{id: id, minBegin: noBound, maxTs: ts, root: root}
	c.runs = c.runs0[:0]
	c.contrib = c.contrib0[:0]
	return c
}

// appendRec buffers one record on the host's run.
func (c *sessComponent) appendRec(h activity.Sym, r pushRec) {
	for i := range c.runs {
		if c.runs[i].host == h {
			c.runs[i].recs = append(c.runs[i].recs, r)
			return
		}
	}
	c.runs = append(c.runs, hostRun{host: h, recs: append(make([]pushRec, 0, 4), r)})
}

// noteHost marks a declared host as a possible future contributor.
func (c *sessComponent) noteHost(h activity.Sym) {
	for _, x := range c.contrib {
		if x == h {
			return
		}
	}
	c.contrib = append(c.contrib, h)
}

// sessShardResult is one sealed component's correlation output.
type sessShardResult struct {
	comp         *sessComponent
	graphs       []*cag.Graph
	rstats       ranker.Stats
	estats       engine.Stats
	peakResident int
}

// taggedGraph is one finished CAG tagged with its deterministic
// provenance (component ordering key, emission position within the
// shard) for the watermark emitter.
type taggedGraph struct {
	g    *cag.Graph
	end  time.Duration // g.End().Timestamp, cached for heap comparisons
	comp int
	pos  int
}

// releasesBefore is the sequential emission order: global END-timestamp
// order. Ties reproduce the sequential ranker's behaviour too:
// equal-timestamp ENDs on different hosts are delivered in sorted host
// name order (Rule 2 keeps the first queue on a tie; queues are built in
// sorted host order), and within one host in log order, which record IDs
// preserve (every trace producer assigns IDs in per-host log order).
// Component/position order is the final fallback for ID-less hand-built
// traces.
func releasesBefore(x, y *taggedGraph) bool {
	if x.end != y.end {
		return x.end < y.end
	}
	ex, ey := x.g.End(), y.g.End()
	if ex.Ctx.Host != ey.Ctx.Host {
		return ex.Ctx.Host < ey.Ctx.Host
	}
	if a, b := ex.Records[0].ID, ey.Records[0].ID; a != b {
		return a < b
	}
	if x.comp != y.comp {
		return x.comp < y.comp
	}
	return x.pos < y.pos
}

// graphHeap is a binary min-heap of finished graphs under releasesBefore.
// It is written out rather than built on container/heap, whose any-typed
// Push/Pop would box every element.
type graphHeap []taggedGraph

func (h *graphHeap) push(t taggedGraph) {
	*h = append(*h, t)
	q := *h
	for i, p := len(q)-1, (len(q)-2)/2; i > 0 && releasesBefore(&q[i], &q[p]); i, p = p, (p-1)/2 {
		q[i], q[p] = q[p], q[i]
	}
}

// pop removes and returns the first graph in release order; h must be
// non-empty.
func (h *graphHeap) pop() taggedGraph {
	q := *h
	top, n := q[0], len(q)-1
	q[0], q[n] = q[n], taggedGraph{}
	q, *h = q[:n], q[:n]
	for i, m := 0, 1; m < n; i, m = m, 2*m+1 {
		if m+1 < n && releasesBefore(&q[m+1], &q[m]) {
			m++
		}
		if !releasesBefore(&q[m], &q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
	}
	return top
}

func newStreamSession(opts Options, hosts []string) *streamSession {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	drvOpts := opts
	drvOpts.Workers = 0
	drvOpts.OnGraph = nil
	drvOpts.Sinks = nil
	// The jobs ring is deep enough that a burst of seals (one drain can
	// retire hundreds of components) dispatches without stalling stage 1.
	jobsCap := 8 * workers
	if jobsCap < 64 {
		jobsCap = 64
	}
	s := &streamSession{
		opts:       opts,
		workers:    workers,
		drv:        New(drvOpts),
		cls:        activity.NewClassifier(opts.EntryPorts...),
		hosts:      make(map[activity.Sym]*sessHost, len(hosts)),
		comps:      make(map[int32]*sessComponent),
		jobs:       ring.New[*sessComponent](jobsCap),
		continuous: opts.continuousConfigured(),
		maxHorizon: opts.maxHorizon(),
	}
	s.colReady.L = &s.colMu
	s.deliver = opts.emitter()
	s.inc = flow.NewIncremental(opts.ShardBy.flowMode(), s.mergeComponents)
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
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s
}

// worker pulls sealed components in batches (one ring wakeup amortized
// over up to workerPullBatch correlations) and lands each result in
// colBuf as soon as it is correlated. The batch is adaptive: under light
// load PopBatch returns a single component immediately, so a lone seal
// is never delayed waiting for company. Stage 1 is woken only by the
// result that completes the count settle is waiting for — once per
// barrier, not once per shard.
func (s *streamSession) worker() {
	defer s.wg.Done()
	sc := newShardScratch(s.drv)
	comps := make([]*sessComponent, workerPullBatch)
	for {
		n := s.jobs.PopBatch(comps)
		if n == 0 {
			return
		}
		for i, c := range comps[:n] {
			r := s.correlateComponent(sc, c)
			comps[i] = nil
			s.colMu.Lock()
			s.colBuf = append(s.colBuf, r)
			s.collected++
			if s.collected == s.settleAt {
				s.colReady.Signal()
			}
			s.colMu.Unlock()
		}
	}
}

// shardScratch is one worker's reusable correlation machinery: a
// ranker+engine pair reset per component, plus the source-building
// buffers. A worker correlates components strictly one after another, so
// everything here is single-owner; only the result's graphs escape (the
// engine drops, never reuses, its outputs slice on Reset).
type shardScratch struct {
	rk   *ranker.Ranker
	eng  *engine.Engine
	runs []namedRun
	srcs []ranker.SliceSource
	refs []ranker.Source
	acts []*activity.Activity
}

// namedRun pairs one host's buffered run with its name for the
// deterministic source sort.
type namedRun struct {
	name string
	recs []pushRec
}

func newShardScratch(drv *Correlator) *shardScratch {
	eng := engine.New()
	return &shardScratch{
		eng: eng,
		rk:  ranker.New(drv.rankerConfig(), eng, nil),
	}
}

// correlateComponent runs the unmodified sequential pass over one sealed
// component. Sources are built in sorted host-name order — the order the
// global pass uses, which the deterministic tie-breaks rely on. (Symbol
// numeric order depends on interning order, so it is never used for
// anything output-visible.)
func (s *streamSession) correlateComponent(sc *shardScratch, c *sessComponent) sessShardResult {
	sc.runs = sc.runs[:0]
	total := 0
	for _, r := range c.runs {
		sc.runs = append(sc.runs, namedRun{name: activity.Syms.Name(r.host), recs: r.recs})
		total += len(r.recs)
	}
	// Components span a handful of hosts; insertion sort keeps this
	// per-seal path free of the sort.Slice closure allocations.
	for i := 1; i < len(sc.runs); i++ {
		for j := i; j > 0 && sc.runs[j].name < sc.runs[j-1].name; j-- {
			sc.runs[j], sc.runs[j-1] = sc.runs[j-1], sc.runs[j]
		}
	}
	// Size acts up front: the per-run source windows alias its backing
	// array, so it must not reallocate while they are being cut.
	if cap(sc.acts) < total {
		sc.acts = make([]*activity.Activity, 0, total)
	}
	sc.acts = sc.acts[:0]
	if cap(sc.srcs) < len(sc.runs) {
		sc.srcs = make([]ranker.SliceSource, len(sc.runs))
	}
	sc.srcs = sc.srcs[:len(sc.runs)]
	sc.refs = sc.refs[:0]
	for i, r := range sc.runs {
		start := len(sc.acts)
		for _, pr := range r.recs {
			sc.acts = append(sc.acts, pr.a)
		}
		sc.srcs[i].Reset(r.name, sc.acts[start:len(sc.acts):len(sc.acts)])
		sc.refs = append(sc.refs, &sc.srcs[i])
	}
	s.drv.driveOn(sc.rk, sc.eng, sc.refs)
	return sessShardResult{
		comp:         c,
		graphs:       sc.eng.Outputs(),
		rstats:       sc.rk.Stats(),
		estats:       sc.eng.Stats(),
		peakResident: sc.eng.PeakResidentVertices(),
	}
}

// Push validates the stream contract, classifies, and ingests. The
// record is bound in place (idempotent) so the host lookup and all
// downstream bookkeeping run on dense keys; the session buffers its own
// slab copy, never the caller's record.
func (s *streamSession) Push(a *activity.Activity) error {
	if s.closed {
		return fmt.Errorf("core: push on closed session")
	}
	if !a.CtxK.Bound() {
		activity.Bind(a)
	}
	h, ok := s.hosts[a.CtxK.Host]
	if !ok {
		return fmt.Errorf("core: unknown host %q (declare it in NewSession)", a.Ctx.Host)
	}
	if !h.open {
		return fmt.Errorf("core: push on closed source %s", a.Ctx.Host)
	}
	if h.any && a.Timestamp < h.last {
		return fmt.Errorf("core: %s timestamp regressed (%v after %v)", a.Ctx.Host, a.Timestamp, h.last)
	}
	cp := s.copyRec(a)
	cp.Type = s.cls.Classify(a)
	s.ingest(cp, h)
	return nil
}

// PushBatch applies a run of records in order as one call. Application
// stops at the first error, which is returned; earlier records stay
// applied.
func (s *streamSession) PushBatch(batch []*activity.Activity) error {
	for _, a := range batch {
		if err := s.Push(a); err != nil {
			return err
		}
	}
	return nil
}

// replayPush is the offline replay's ingest path: the record is already
// copied/owned and classified, and the replay — which controls every
// stream — skips the online contract checks (the historical sequential
// pass accepted per-host disorder too, producing whatever the ranker
// makes of it).
func (s *streamSession) replayPush(cp *activity.Activity) {
	if !cp.CtxK.Bound() {
		activity.Bind(cp)
	}
	h := s.hosts[cp.CtxK.Host]
	if h == nil {
		// A source whose records carry an undeclared host name: declare it
		// on the fly; the replay closes every host before draining.
		h = &sessHost{name: cp.Ctx.Host, open: true, horizon: s.opts.horizonFor(cp.Ctx.Host)}
		s.hosts[cp.CtxK.Host] = h
	}
	s.ingest(cp, h)
}

// debugShardClosure turns on assertChanClosure in every streamSession:
// the per-push check that no ChanKey ever resolves to two live
// components — the invariant the shard-aware Fig. 5 predicate rests on
// (ranker.matchingSendVisible). Tests flip it directly; set
// CORE_DEBUG_SHARD_CLOSURE=1 to enable it in a normal build.
var debugShardClosure = os.Getenv("CORE_DEBUG_SHARD_CLOSURE") != ""

// assertChanClosure checks, after cp was assigned to root, that cp's
// connection has not escaped the component it first filed under. The one
// legitimate divergence is a dispatched owner: a sealed component's
// straggler is detached onto a fresh root by design (a late link), so the
// previous owner must then be sealed or already retired — never live and
// growing.
func (s *streamSession) assertChanClosure(cp *activity.Activity, root int32) {
	if s.chanOwner == nil {
		s.chanOwner = make(map[activity.ChanKey]int32)
	}
	key := cp.ChanK
	n, ok := s.chanOwner[key]
	if !ok {
		if rn, rok := s.chanOwner[key.Reverse()]; rok {
			key, n, ok = key.Reverse(), rn, true
		}
	}
	if !ok {
		s.chanOwner[key] = root
		return
	}
	prev := s.inc.Root(n)
	if prev == root {
		return
	}
	if c := s.comps[prev]; c == nil || c.sealed {
		s.chanOwner[key] = root // previous owner dispatched: late-link detach
		return
	}
	panic(fmt.Sprintf("core: ChanKey split across two live components (roots %d and %d) — channel-closure invariant violated", prev, root))
}

// ingest assigns one classified activity to its flow component and
// buffers it in per-host push order. The caller owns cp, which must be
// bound.
func (s *streamSession) ingest(cp *activity.Activity, h *sessHost) {
	lateBefore := s.inc.LateLinks()
	root := s.inc.Add(cp)
	if debugShardClosure {
		s.assertChanClosure(cp, root)
	}
	c := s.comps[root]
	if c == nil || c.sealed {
		// sealed here means a late link reached an already-dispatched
		// component (possible only with an incomplete IPToHost map);
		// start a fresh shard rather than touching in-flight buffers.
		c = newSessComponent(s.nextCompID, cp.Timestamp, root)
		s.nextCompID++
		s.comps[root] = c
	}
	if s.inc.LateLinks() > lateBefore {
		// This record genuinely linked to a tombstoned component and was
		// detached onto this one: its graphs may be split fragments of a
		// dispatched request — tag the provenance for downstream sinks.
		c.late = true
	}
	c.appendRec(cp.CtxK.Host, pushRec{a: cp, seq: h.seq})
	if cp.Type == activity.Begin {
		c.minBegin = min(c.minBegin, cp.Timestamp)
	}
	c.maxTs = max(c.maxTs, cp.Timestamp)
	s.maxTs = max(s.maxTs, cp.Timestamp)
	c.size++
	c.noteHost(cp.CtxK.Host)
	s.noteEndpoint(c, cp.ChanK.SrcIP)
	s.noteEndpoint(c, cp.ChanK.DstIP)
	h.seq++
	if cp.Timestamp > h.last || !h.any {
		h.last = cp.Timestamp
	}
	h.any = true
	s.pushed++
	s.pendingActs++
}

// Heartbeat is the host's agent asserting it is alive and will never
// deliver an activity older than ts. The assertion
// advances the host's watermark bound (quiet-but-healthy hosts stop
// holding back emission) and the activity clock (seal horizons keep
// advancing through traffic lulls). A stale heartbeat — older than the
// host's newest delivered record — is ignored.
func (s *streamSession) Heartbeat(host string, ts time.Duration) error {
	if s.closed {
		return fmt.Errorf("core: heartbeat on closed session")
	}
	h, ok := s.hosts[activity.Syms.Intern(host)]
	if !ok {
		return fmt.Errorf("core: unknown host %q (declare it in NewSession)", host)
	}
	if !h.open {
		return fmt.Errorf("core: heartbeat on closed source %s", host)
	}
	if ts > h.last || !h.any {
		h.last = ts
	}
	h.any = true
	if ts > s.maxTs {
		s.maxTs = ts
	}
	return nil
}

// noteEndpoint records a channel endpoint's owning host as a possible
// future contributor to the component.
func (s *streamSession) noteEndpoint(c *sessComponent, ip activity.Sym) {
	if hn, ok := s.ipHost[ip]; ok {
		if _, declared := s.hosts[hn]; declared {
			c.noteHost(hn)
		}
	}
}

// mergeComponents is the flow.Incremental merge callback: the loser
// root's buffers fold into the winner root's.
func (s *streamSession) mergeComponents(winner, loser int32) {
	cw, cl := s.comps[winner], s.comps[loser]
	if cl != nil {
		delete(s.comps, loser)
	}
	switch {
	case cl == nil:
		return // the loser root had no buffered activities yet
	case cw == nil:
		cl.root = winner
		s.comps[winner] = cl
	default:
		if fused := s.fuse(cw, cl, winner); fused != nil {
			s.comps[winner] = fused
		} else {
			delete(s.comps, winner)
		}
	}
}

// fuse merges two component buffers (the larger absorbs the smaller).
func (s *streamSession) fuse(a, b *sessComponent, root int32) *sessComponent {
	// A sealed component is already owned by the worker pool; its buffers
	// must not be touched. Reaching one here is only possible when
	// IPToHost fails to cover a declared host — degrade to under-merged
	// shards instead of a data race, mirroring how the ranker degrades on
	// the same misconfiguration.
	if a.sealed || b.sealed {
		live := a
		if a.sealed {
			live = b
		}
		if live.sealed {
			return nil // both in flight: nothing left to buffer into
		}
		live.root = root
		return live
	}
	if b.size > a.size {
		a, b = b, a
	}
	for i := range b.runs {
		br := &b.runs[i]
		merged := false
		for j := range a.runs {
			if a.runs[j].host == br.host {
				a.runs[j].recs = mergeRuns(a.runs[j].recs, br.recs)
				merged = true
				break
			}
		}
		if !merged {
			a.runs = append(a.runs, *br)
		}
	}
	for _, h := range b.contrib {
		a.noteHost(h)
	}
	a.minBegin = min(a.minBegin, b.minBegin)
	a.maxTs = max(a.maxTs, b.maxTs)
	a.id = min(a.id, b.id)
	if b.late {
		a.late = true
	}
	a.size += b.size
	a.root = root
	return a
}

// mergeRuns interleaves two (timestamp, push-sequence)-sorted host runs.
func mergeRuns(x, y []pushRec) []pushRec {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	out := make([]pushRec, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if y[j].a.Timestamp < x[i].a.Timestamp ||
			(y[j].a.Timestamp == x[i].a.Timestamp && y[j].seq < x[i].seq) {
			out = append(out, y[j])
			j++
		} else {
			out = append(out, x[i])
			i++
		}
	}
	out = append(out, x[i:]...)
	out = append(out, y[j:]...)
	return out
}

// CloseHost closes one host's stream, which is what seals components
// and feeds the worker pool.
func (s *streamSession) CloseHost(host string) error {
	h, ok := s.hosts[activity.Syms.Intern(host)]
	if !ok {
		return fmt.Errorf("core: unknown host %q", host)
	}
	start := time.Now()
	if h.open {
		h.open = false
		s.sealCompleted()
	}
	s.harvest()
	s.workTime += time.Since(start)
	return nil
}

// sealCompleted seals every component that no open host can extend and
// queues it for the worker pool, in deterministic creation order.
func (s *streamSession) sealCompleted() {
	ready := s.sealReady[:0]
	for _, c := range s.comps {
		if c.sealed || s.growable(c) {
			continue
		}
		ready = append(ready, c)
	}
	s.enqueue(ready)
	s.sealReady = ready[:0]
}

// compHorizon returns the component's effective seal horizon: the
// largest horizon among the open declared hosts that may still extend
// it — a component a lagging host can touch inherits that host's longer
// deadline; components it cannot touch keep the shorter default. Closed
// streams deliver nothing, so (like growable) they bound nothing: a
// horizon-less host stops pinning its components open the moment it
// closes. 0 means unbounded: some open contributing host has no
// horizon, so only closure can seal the component.
func (s *streamSession) compHorizon(c *sessComponent) time.Duration {
	var horizon time.Duration
	for _, hn := range c.contrib {
		hh := s.hosts[hn]
		if hh == nil || !hh.open {
			continue
		}
		if hh.horizon <= 0 {
			return 0
		}
		if hh.horizon > horizon {
			horizon = hh.horizon
		}
	}
	return horizon
}

// sealStale force-seals every component whose newest activity has fallen
// more than its own horizon behind the activity clock — the continuous-
// emission rule. Evaluated at Drain, against pushed/heartbeated
// timestamps only, so replaying the same push/drain sequence reproduces
// the same seals.
func (s *streamSession) sealStale() {
	if !s.continuous {
		return
	}
	ready := s.sealReady[:0]
	for _, c := range s.comps {
		if c.sealed {
			continue
		}
		horizon := s.compHorizon(c)
		if horizon <= 0 || c.maxTs >= s.maxTs-horizon {
			continue
		}
		c.forced = true
		ready = append(ready, c)
	}
	s.forcedSeals += len(ready)
	s.enqueue(ready)
	s.sealReady = ready[:0]
}

// enqueue seals the given components and dispatches them to the worker
// pool in deterministic creation order, as one batched ring push. In
// continuous mode the flow partition tombstones each root, so a
// straggler activity becomes a counted late link on a fresh component
// instead of touching dispatched buffers — and the flow-bookkeeping
// prune is scheduled here, at seal time, where maxTs is a deterministic
// function of the event stream (absorption timing is pipelined and
// therefore no longer deterministic).
func (s *streamSession) enqueue(ready []*sessComponent) {
	// Ready batches are small (the components one drain retires);
	// insertion sort spares the per-drain sort.Slice closures.
	for i := 1; i < len(ready); i++ {
		for j := i; j > 0 && ready[j].id < ready[j-1].id; j-- {
			ready[j], ready[j-1] = ready[j-1], ready[j]
		}
	}
	for _, c := range ready {
		c.sealed = true
		if s.continuous {
			s.inc.Seal(c.root)
			// Keep late-link detection alive exactly as long as the
			// liveness bounds admit stragglers, then prune.
			lag := s.compHorizon(c)
			if lag <= 0 {
				lag = s.maxHorizon
			}
			s.inc.SchedulePrune(c.root, s.maxTs+lag)
		}
	}
	// Blocking push is safe here: workers always drain jobs, landing a
	// result never waits on stage 1, and stage 1 holds no locks — a full
	// ring is backpressure, not deadlock.
	s.jobs.PushBatch(ready)
	s.dispatched += len(ready)
	s.shards += len(ready)
}

// growable reports whether any still-open declared host could push an
// activity joining this component.
func (s *streamSession) growable(c *sessComponent) bool {
	for _, hn := range c.contrib {
		if hh := s.hosts[hn]; hh != nil && hh.open {
			return true
		}
	}
	return false
}

// harvest folds every result the workers have landed into the session,
// without waiting for in-flight shards — the non-blocking half of the
// stage-1/pool handshake. The two buffers ping-pong so the steady state
// allocates nothing.
func (s *streamSession) harvest() {
	s.colMu.Lock()
	batch := s.colBuf
	s.colBuf = s.colScratch[:0]
	s.colMu.Unlock()
	if len(batch) == 0 {
		s.colScratch = batch
		return
	}
	for i := range batch {
		s.absorb(batch[i])
		batch[i] = sessShardResult{}
	}
	s.colScratch = batch[:0]
}

// settle waits until every dispatched shard has landed, then absorbs the
// lot — the full barrier Drain and Close rely on. It publishes the count
// it waits for as settleAt, so only the worker landing the last result
// wakes it. Waiting cannot deadlock: workers drain the jobs ring
// unconditionally and land results without waiting on stage 1, so every
// dispatched component's result reaches collected.
func (s *streamSession) settle() {
	s.colMu.Lock()
	s.settleAt = s.dispatched
	for s.collected < s.dispatched {
		s.colReady.Wait()
	}
	s.colMu.Unlock()
	s.harvest()
}

// absorb folds one shard result into the session aggregates. Runs on
// stage 1 only (via harvest/settle), so the comps map and aggregates
// stay single-owner.
func (s *streamSession) absorb(r sessShardResult) {
	s.pendingActs -= r.comp.size
	s.uncounted += int(r.rstats.Delivered)
	addRankerStats(&s.rstats, r.rstats)
	addEngineStats(&s.estats, r.estats)
	if r.peakResident > s.peakVert {
		s.peakVert = r.peakResident
	}
	for pos, g := range r.graphs {
		if r.comp.forced || r.comp.late {
			g.SetProvenance(r.comp.forced, r.comp.late)
		}
		s.finished.push(taggedGraph{g: g, end: g.End().Timestamp, comp: r.comp.id, pos: pos})
	}
	if s.comps[r.comp.root] == r.comp {
		delete(s.comps, r.comp.root)
	}
}

// watermark returns the END-timestamp bound below which no future graph
// can appear; it is noBound when no BEGIN is resident and no host is
// open — everything may go. Every CAG's root is a BEGIN and its END is
// stamped after it by the same entry-tier context, and the engine gives
// both vertices their first record's timestamp, so END ≥ root BEGIN. A
// future graph's BEGIN is either buffered in a resident component
// (sealed-but-in-flight ones stay in comps until absorbed), so its END ≥
// that component's minBegin, or not yet pushed, so its END ≥ its host's
// bound. A BEGIN-less component bounds nothing: if it later fuses with
// one holding a BEGIN, that one covers it.
//
// An open host can only push at or after its last local timestamp (one
// that never pushed nor heartbeated bounds nothing, so nothing may be
// released). With a seal horizon that bound is raised to the host's
// sender-liveness floor maxTs−horizon(host), so a quiet-but-open stream
// no longer blocks emission forever. A push violating that presumption is
// the same late-link event the forced seal accepts, and can regress the
// emitted order (surfaced downstream via live.Monitor.OutOfOrder).
func (s *streamSession) watermark() time.Duration {
	wm := noBound
	for _, c := range s.comps {
		wm = min(wm, c.minBegin)
	}
	for _, h := range s.hosts {
		if !h.open {
			continue
		}
		b := time.Duration(math.MinInt64) // no lower bound yet
		if h.any {
			b = h.last
		}
		if h.horizon > 0 {
			b = max(b, s.maxTs-h.horizon)
		}
		wm = min(wm, b)
	}
	return wm
}

// emit pops finished graphs off the heap in release order while their END
// lies strictly below the watermark; all=true releases everything. Strict
// inequality makes cross-batch ties impossible: any graph arriving later
// has an END at or above every watermark used before, so the released
// stream is globally sorted.
func (s *streamSession) emit(all bool) {
	if len(s.finished) == 0 {
		return
	}
	wm := noBound
	if !all {
		wm = s.watermark()
	}
	for len(s.finished) > 0 && (wm == noBound || s.finished[0].end < wm) {
		g := s.finished.pop().g
		if s.deliver != nil {
			s.deliver(g)
		} else {
			s.emitted = append(s.emitted, g)
		}
	}
}

// Drain force-seals stale components (continuous mode), finishes every
// decidable (sealed) component, and releases what the watermark permits.
func (s *streamSession) Drain() int {
	start := time.Now()
	s.sealStale()
	s.settle()
	if s.continuous {
		s.inc.PruneBefore(s.maxTs)
	}
	s.emit(false)
	s.workTime += time.Since(start)
	n := s.uncounted
	s.uncounted = 0
	return n
}

// Close seals and settles everything, stops the pool and releases every
// held graph.
func (s *streamSession) Close() *Result {
	if s.closed {
		return s.final
	}
	start := time.Now()
	for _, h := range s.hosts {
		h.open = false
	}
	s.sealCompleted()
	s.settle()
	s.jobs.Close()
	s.wg.Wait()
	s.emit(true)
	s.workTime += time.Since(start)
	s.closed = true
	s.final = &Result{
		Graphs:                 s.emitted,
		CorrelationTime:        s.workTime,
		Activities:             s.pushed,
		Ranker:                 s.rstats,
		Engine:                 s.estats,
		PeakBufferedActivities: s.rstats.PeakBuffered,
		PeakResidentVertices:   s.peakVert,
		Shards:                 s.shards,
		ForcedSeals:            s.forcedSeals,
		LateLinks:              s.inc.LateLinks(),
	}
	return s.final
}

// addRankerStats accumulates shard counters. Counter fields sum across
// shards; PeakBuffered is aggregated separately (the Result reports the
// largest single-shard peak — the Fig. 11 global-buffer figure is a
// global-pass concept).
func addRankerStats(dst *ranker.Stats, s ranker.Stats) {
	dst.Fetched += s.Fetched
	dst.Delivered += s.Delivered
	dst.FilterDropped += s.FilterDropped
	dst.NoiseDropped += s.NoiseDropped
	dst.Swaps += s.Swaps
	dst.Extensions += s.Extensions
	dst.ForcedPops += s.ForcedPops
	if s.PeakBuffered > dst.PeakBuffered {
		dst.PeakBuffered = s.PeakBuffered
	}
}

func addEngineStats(dst *engine.Stats, s engine.Stats) {
	dst.Begins += s.Begins
	dst.Finished += s.Finished
	dst.MergedSends += s.MergedSends
	dst.MergedBegins += s.MergedBegins
	dst.MergedEnds += s.MergedEnds
	dst.PartialReceives += s.PartialReceives
	dst.Receives += s.Receives
	dst.Sends += s.Sends
	dst.DiscardedSends += s.DiscardedSends
	dst.DiscardedReceives += s.DiscardedReceives
	dst.DiscardedEnds += s.DiscardedEnds
	dst.OverrunReceives += s.OverrunReceives
	dst.ReplacedSends += s.ReplacedSends
	dst.ThreadReuseBreaks += s.ThreadReuseBreaks
}
