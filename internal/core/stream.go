package core

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"time"
	"unsafe"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
	"repro/internal/ranker"
)

// slabSize is how many buffered-copy records fit in 64 KiB, a whole
// number of pages, so less than one record's worth of a block goes unused.
const slabSize = 64 << 10 / int(unsafe.Sizeof(activity.Activity{}))

// copyRec copies one record into the session's slab. The returned copy
// is owned by the session (component buffers, then CAG vertices).
func (s *Session) copyRec(a *activity.Activity) *activity.Activity {
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
	forced   bool   // sealed by a horizon, not by host closure
	late     bool   // received a straggler that late-linked off a sealed shard
	root     int32  // current union-find root
	gen      uint32 // bumped on recycling: tells a deadline entry its struct was reused

	// runs0 and contrib0 are inline backing storage: most components
	// touch one or two hosts, so the slices usually never leave the
	// struct (same trick as cag.Vertex's inline record storage).
	runs0    [2]hostRun
	contrib0 [4]activity.Sym
}

// noBound is the minBegin of a component holding no BEGIN, and the
// watermark when nothing bounds it.
const noBound = time.Duration(math.MaxInt64)

// newSessComponent draws a component struct from the free list (or
// allocates one) and resets every field.
func (s *Session) newSessComponent(id int, ts time.Duration, root int32) *sessComponent {
	var c *sessComponent
	if n := len(s.compFree); n > 0 {
		c = s.compFree[n-1]
		s.compFree[n-1] = nil
		s.compFree = s.compFree[:n-1]
	} else {
		c = new(sessComponent)
		c.runs = c.runs0[:0]
		c.contrib = c.contrib0[:0]
	}
	*c = sessComponent{id: id, minBegin: noBound, maxTs: ts, root: root, gen: c.gen, runs: c.runs[:0], contrib: c.contrib[:0]}
	return c
}

// recycleComponent returns a component struct no one references any
// more to the free list. Its run arrays must already have been handed
// on (fused into another component, or returned to runFree): only the
// run headers are cleared here, so the list pins no records. The
// generation bump retires any deadline entry still naming the struct.
func (s *Session) recycleComponent(c *sessComponent) {
	clear(c.runs[:cap(c.runs)])
	c.gen++
	s.compFree = append(s.compFree, c)
}

// appendRec buffers one record on the host's run, growing the run
// through the free list.
func (c *sessComponent) appendRec(p *runPool, h activity.Sym, r pushRec) {
	for i := range c.runs {
		run := &c.runs[i]
		if run.host != h {
			continue
		}
		if len(run.recs) == cap(run.recs) {
			grown := append(p.get(2*len(run.recs)), run.recs...)
			p.release(run.recs)
			run.recs = grown
		}
		run.recs = append(run.recs, r)
		return
	}
	c.runs = append(c.runs, hostRun{host: h, recs: append(p.get(minRun), r)})
}

// minRun is the smallest run array: the first size class of runPool.
const minRun = 4

// runPool is stage 1's free list of run backing arrays, one LIFO stack
// per power-of-two capacity class (minRun, 2×minRun, …). Components grow
// their runs through it, fusion merges into arrays drawn from it, and
// absorbed shards hand their arrays back, so a continuous session's
// steady churn of components stops buying a fresh array per run and per
// doubling. Arrays are cleared on return, so the list never pins slab
// records.
//
// What it keeps is bounded by what live (unsealed) components hold:
// held ≤ live at all times. A close-driven session dispatches every
// component at the end, so its last absorptions keep — and clear —
// nothing, and it ends with an empty list.
type runPool struct {
	free [][][]pushRec // free[k]: zeroed arrays of capacity minRun<<k
	held int           // records of capacity on the list
	live int           // records of capacity owned by live components
}

// runClass returns the size class whose capacity is the smallest power
// of two ≥ max(n, minRun).
func runClass(n int) int {
	if n <= minRun {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(minRun-1)
}

// get returns an empty array with room for at least n records, owned
// from now on by a live component.
func (p *runPool) get(n int) []pushRec {
	k := runClass(n)
	p.live += minRun << k
	if k < len(p.free) {
		if m := len(p.free[k]); m > 0 {
			r := p.free[k][m-1]
			p.free[k][m-1] = nil
			p.free[k] = p.free[k][:m-1]
			p.held -= cap(r)
			return r
		}
	}
	return make([]pushRec, 0, minRun<<k)
}

// release takes back an array a live component has outgrown.
func (p *runPool) release(r []pushRec) {
	p.shrink(cap(r))
	p.put(r)
}

// retire accounts a component leaving the live set at its seal: its
// arrays now belong to a shard job, and come back through put when it is
// absorbed.
func (p *runPool) retire(c *sessComponent) {
	for _, run := range c.runs {
		p.shrink(cap(run.recs))
	}
}

// put recycles an array no live component owns, unless keeping it would
// let the list outgrow the live set.
func (p *runPool) put(r []pushRec) {
	c := cap(r)
	if p.held+c > p.live {
		return
	}
	clear(r[:c])
	k := runClass(c)
	for len(p.free) <= k {
		p.free = append(p.free, nil)
	}
	p.free[k] = append(p.free[k], r[:0])
	p.held += c
}

// shrink takes n records of capacity out of the live set, dropping
// arrays off the list, largest first, until it is back within it.
func (p *runPool) shrink(n int) {
	p.live -= n
	for k := len(p.free) - 1; k >= 0 && p.held > p.live; k-- {
		for m := len(p.free[k]); m > 0 && p.held > p.live; m-- {
			p.held -= cap(p.free[k][m-1])
			p.free[k][m-1] = nil
			p.free[k] = p.free[k][:m-1]
		}
	}
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

// before is the sequential emission order: global END-timestamp
// order. Ties reproduce the sequential ranker's behaviour too:
// equal-timestamp ENDs on different hosts are delivered in sorted host
// name order (Rule 2 keeps the first queue on a tie; queues are built in
// sorted host order), and within one host in log order, which record IDs
// preserve (every trace producer assigns IDs in per-host log order).
// Component/position order is the final fallback for ID-less hand-built
// traces.
func (x *taggedGraph) before(y *taggedGraph) bool {
	if x.end != y.end {
		return x.end < y.end
	}
	ex, ey := x.g.End(), y.g.End()
	if ex.Ctx.Host != ey.Ctx.Host {
		return ex.Ctx.Host < ey.Ctx.Host
	}
	if a, b := ex.ID, ey.ID; a != b {
		return a < b
	}
	if x.comp != y.comp {
		return x.comp < y.comp
	}
	return x.pos < y.pos
}

// graphHeap holds finished graphs in release order.
type graphHeap = minHeap[taggedGraph, *taggedGraph]

// deadline is one component's entry in the seal queue: the activity time
// at, as last computed, past which the component is force-sealed, and
// the generation of the struct it was queued for.
type deadline struct {
	at  time.Duration
	c   *sessComponent
	gen uint32
}

func (x *deadline) before(y *deadline) bool { return x.at < y.at }

// heapOrder is the element order of a minHeap, as a method on the
// element's pointer type.
type heapOrder[T any] interface {
	*T
	before(*T) bool
}

// minHeap is a binary min-heap under P's before. It is written out
// rather than built on container/heap, whose any-typed Push/Pop would box
// every element.
type minHeap[T any, P heapOrder[T]] []T

func (h *minHeap[T, P]) push(t T) {
	*h = append(*h, t)
	q := *h
	for i, p := len(q)-1, (len(q)-2)/2; i > 0 && P(&q[i]).before(&q[p]); i, p = p, (p-1)/2 {
		q[i], q[p] = q[p], q[i]
	}
}

// pop removes and returns the least element; h must be non-empty.
func (h *minHeap[T, P]) pop() T {
	q := *h
	var zero T
	top, n := q[0], len(q)-1
	q[0], q[n] = q[n], zero
	q, *h = q[:n], q[:n]
	for i, m := 0, 1; m < n; i, m = m, 2*m+1 {
		if m+1 < n && P(&q[m+1]).before(&q[m]) {
			m++
		}
		if !P(&q[m]).before(&q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
	}
	return top
}

// shardScratch is one correlating goroutine's reusable machinery: a
// ranker+engine pair reset per component, plus the source-building
// buffers. Its goroutine correlates components strictly one after
// another, so everything here is single-owner; only the result's graphs
// escape (the engine drops, never reuses, its outputs slice on Reset).
type shardScratch struct {
	rk   *ranker.Ranker
	eng  *engine.Engine
	srcs []ranker.Source
	acts []*activity.Activity
}

func newShardScratch(cfg ranker.Config) *shardScratch {
	eng := engine.New()
	return &shardScratch{eng: eng, rk: ranker.New(cfg, eng, nil)}
}

// correlatePass is the paper's sequential correlator, run to exhaustion
// over per-node sources on a caller-owned, reusable ranker+engine pair:
// both are reset in place, and each candidate goes from the ranker to the
// engine with the ordinals the ranker interned it under at load, so the
// pass hashes each record once. The session correlates one sealed
// component after another on the same pair — in continuous mode the
// per-component ranker/engine construction dominated steady-state
// allocations.
func correlatePass(rk *ranker.Ranker, eng *engine.Engine, sources []ranker.Source) {
	eng.Reset()
	rk.Reset(eng, sources)
	for {
		a, o := rk.Next()
		if a == nil {
			break
		}
		eng.HandleOrds(a, o)
	}
}

// correlateComponent runs the unmodified sequential pass over one sealed
// component. Sources are ranked in sorted host-name order — the order the
// global pass uses, which the deterministic tie-breaks rely on. (Symbol
// numeric order depends on interning order, so it is never used for
// anything output-visible.)
func (s *Session) correlateComponent(sc *shardScratch, c *sessComponent) sessShardResult {
	// Size acts up front: the sources alias its backing array, so it must
	// not reallocate while they are being cut.
	if cap(sc.acts) < c.size {
		sc.acts = make([]*activity.Activity, 0, c.size)
	}
	sc.acts = sc.acts[:0]
	sc.srcs = sc.srcs[:0]
	for _, r := range c.runs {
		start := len(sc.acts)
		for _, pr := range r.recs {
			sc.acts = append(sc.acts, pr.a)
		}
		sc.srcs = append(sc.srcs, ranker.Source{Host: activity.Syms.Name(r.host), Recs: sc.acts[start:len(sc.acts):len(sc.acts)]})
	}
	// Components span a handful of hosts; insertion sort keeps this
	// per-seal path free of the sort.Slice closure allocations.
	for i := 1; i < len(sc.srcs); i++ {
		for j := i; j > 0 && sc.srcs[j].Host < sc.srcs[j-1].Host; j-- {
			sc.srcs[j], sc.srcs[j-1] = sc.srcs[j-1], sc.srcs[j]
		}
	}
	correlatePass(sc.rk, sc.eng, sc.srcs)
	return sessShardResult{
		comp:         c,
		graphs:       sc.eng.Outputs(),
		rstats:       sc.rk.Stats(),
		estats:       sc.eng.Stats(),
		peakResident: sc.eng.PeakResidentVertices(),
	}
}

// Push feeds one raw TCP_TRACE record (classification happens inside).
// Records of one host must arrive in that host's local-clock order; hosts
// interleave arbitrarily. The record is bound in place (idempotent) so the
// host lookup and all downstream bookkeeping run on dense keys; the
// session buffers its own slab copy, never the caller's record.
func (s *Session) Push(a *activity.Activity) error {
	if s.closed {
		return fmt.Errorf("core: push on closed session")
	}
	activity.Bind(a)
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

// PushBatch feeds a run of raw records in order, as one call — the shape
// a decoded transport frame arrives in. It is equivalent to calling Push
// per record: application stops at the first error, which is returned,
// and the records before it stay applied. The session copies what it
// keeps, so the caller may recycle the batch's records afterwards
// (activity.ReleaseRecord for pooled decode-side records).
func (s *Session) PushBatch(batch []*activity.Activity) error {
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
func (s *Session) replayPush(cp *activity.Activity) {
	activity.Bind(cp)
	h := s.hosts[cp.CtxK.Host]
	if h == nil {
		// A host log whose records carry a name other than its file's:
		// declare it on the fly; the replay closes every host before
		// draining.
		h = &sessHost{name: cp.Ctx.Host, open: true, horizon: s.opts.horizonFor(cp.Ctx.Host)}
		s.hosts[cp.CtxK.Host] = h
	}
	s.ingest(cp, h)
}

// debugShardClosure turns on assertChanClosure in every Session:
// the per-push check that no Channel ever resolves to two live
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
func (s *Session) assertChanClosure(cp *activity.Activity, root int32) {
	if s.chanOwner == nil {
		s.chanOwner = make(map[activity.Channel]int32)
	}
	key := cp.Chan
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
	panic(fmt.Sprintf("core: channel split across two live components (roots %d and %d) — channel-closure invariant violated", prev, root))
}

// ingest assigns one classified activity to its flow component and
// buffers it in per-host push order. The caller owns cp, which must be
// bound. The record's timestamp advances the activity clock first, so a
// component it ages past its deadline is sealed — and tombstoned — before
// the record is partitioned: a continuation on one of its connections
// detaches as a late link instead of fusing into it.
func (s *Session) ingest(cp *activity.Activity, h *sessHost) {
	s.maxTs = max(s.maxTs, cp.Timestamp)
	s.sealExpired()
	lateBefore := s.inc.LateLinks()
	root := s.inc.Add(cp)
	if debugShardClosure {
		s.assertChanClosure(cp, root)
	}
	c := s.comps[root]
	fresh := c == nil || c.sealed
	if fresh {
		// sealed here means a late link reached an already-sealed
		// component (possible only with an incomplete IPToHost map);
		// start a fresh shard rather than touching sealed buffers.
		c = s.newSessComponent(s.nextCompID, cp.Timestamp, root)
		s.nextCompID++
		s.comps[root] = c
	}
	if s.inc.LateLinks() > lateBefore {
		// This record genuinely linked to a tombstoned component and was
		// detached onto this one: its graphs may be split fragments of a
		// dispatched request — tag the provenance for downstream sinks.
		c.late = true
	}
	c.appendRec(&s.runFree, cp.CtxK.Host, pushRec{a: cp, seq: h.seq})
	if cp.Type == activity.Begin {
		c.minBegin = min(c.minBegin, cp.Timestamp)
	}
	c.maxTs = max(c.maxTs, cp.Timestamp)
	c.size++
	c.noteHost(cp.CtxK.Host)
	s.noteEndpoint(c, cp.Chan.Src.IP)
	s.noteEndpoint(c, cp.Chan.Dst.IP)
	if fresh && s.continuous {
		s.queueDeadline(c)
	}
	h.seq++
	if cp.Timestamp > h.last || !h.any {
		h.last = cp.Timestamp
	}
	h.any = true
	s.pushed++
	s.pendingActs++
}

// Heartbeat records a liveness assertion from one host's agent: the host
// is alive and will never deliver an activity with a timestamp older
// than ts. It advances the watermark past quiet-but-healthy streams —
// without it, an idle host with no horizon holds back every emission,
// and an idle host with a long horizon delays them by that horizon. A
// heartbeat also advances the activity clock that seal horizons measure
// against, so correlation keeps flowing through traffic lulls: a
// component the new clock ages past its horizon is sealed at once, as at
// a push, and a later record on one of its connections starts a fresh
// component. Stale assertions (ts older than the host's newest record)
// are ignored.
//
// Like pushed timestamps, heartbeats are activity-time, never wall
// clock: replaying the same push/heartbeat/drain sequence reproduces the
// same output.
func (s *Session) Heartbeat(host string, ts time.Duration) error {
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
	s.maxTs = max(s.maxTs, ts)
	s.sealExpired()
	return nil
}

// noteEndpoint records a channel endpoint's owning host as a possible
// future contributor to the component.
func (s *Session) noteEndpoint(c *sessComponent, ip activity.Sym) {
	if hn, ok := s.ipHost[ip]; ok {
		if _, declared := s.hosts[hn]; declared {
			c.noteHost(hn)
		}
	}
}

// mergeComponents is the flow.Incremental merge callback: the loser
// root's buffers fold into the winner root's.
func (s *Session) mergeComponents(winner, loser int32) {
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
func (s *Session) fuse(a, b *sessComponent, root int32) *sessComponent {
	// A sealed component's contents are final: its prune is scheduled and
	// the next barrier correlates it as it stands. Reaching one here is
	// only possible when IPToHost fails to cover a declared host — degrade
	// to under-merged shards, mirroring how the ranker degrades on the
	// same misconfiguration.
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
				a.runs[j].recs = s.runFree.mergeRuns(a.runs[j].recs, br.recs)
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
	s.recycleComponent(b)
	return a
}

// mergeRuns interleaves two (timestamp, push-sequence)-sorted runs of
// live components into an array drawn from the list, and takes both
// inputs back.
func (p *runPool) mergeRuns(x, y []pushRec) []pushRec {
	out := p.get(len(x) + len(y))
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
	p.release(x)
	p.release(y)
	return out
}

// CloseHost marks one host's stream complete (its agent shut down). This
// is what seals components absent a horizon: a flow component whose every
// contributing host has closed can no longer grow, and CloseHost
// correlates it before it returns. A closed host no longer extends any
// component's horizon, so the deadlines are requeued and those the clock
// has already passed seal here, as forced seals. It releases nothing; the
// next Drain or Close does.
func (s *Session) CloseHost(host string) error {
	h, ok := s.hosts[activity.Syms.Intern(host)]
	if !ok {
		return fmt.Errorf("core: unknown host %q", host)
	}
	start := time.Now()
	if h.open {
		h.open = false
		s.requeueDeadlines()
		s.sealExpired()
		s.sealCompleted()
	}
	s.dispatch()
	s.workTime += time.Since(start)
	return nil
}

// sealCompleted seals every component that no open host can extend.
func (s *Session) sealCompleted() {
	for _, c := range s.comps {
		if !c.sealed && !s.growable(c) {
			s.seal(c)
		}
	}
}

// compHorizon returns the component's effective seal horizon: the
// largest horizon among the open declared hosts that may still extend
// it — a component a lagging host can touch inherits that host's longer
// deadline; components it cannot touch keep the shorter default. Closed
// streams deliver nothing, so (like growable) they bound nothing: a
// horizon-less host stops pinning its components open the moment it
// closes. 0 means unbounded: some open contributing host has no
// horizon, so only closure can seal the component.
func (s *Session) compHorizon(c *sessComponent) time.Duration {
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

// sealExpired force-seals every live component whose newest activity has
// fallen more than its own horizon behind the activity clock — the
// continuous-emission rule. It runs wherever the clock or a horizon
// moves (a push, a heartbeat, a host closing), against pushed and
// heartbeated timestamps only, so the same record stream reproduces the
// same seals at any Drain cadence.
//
// The queue holds at most one entry per component, pushed when the
// component is created with its deadline at the time: maxTs only grows
// and a horizon only widens while the component's hosts stay open, so
// an entry's deadline is never later than the true one. An entry that
// reaches the top is checked against the component as it is now —
// requeued with its current deadline if that lies ahead, dropped if the
// component is gone (its struct recycled, which bumps gen) or sealed, or
// if its horizon is unbounded (a horizon-less host is open; only that
// host's closing can change it, and CloseHost requeues everything).
func (s *Session) sealExpired() {
	for len(s.deadlines) > 0 && s.deadlines[0].at < s.maxTs {
		d := s.deadlines.pop()
		c := d.c
		if c.gen != d.gen || c.sealed {
			continue
		}
		horizon := s.compHorizon(c)
		if horizon <= 0 {
			continue
		}
		if at := c.maxTs + horizon; at >= s.maxTs {
			s.deadlines.push(deadline{at: at, c: c, gen: d.gen})
			continue
		}
		c.forced = true
		s.forcedSeals++
		s.seal(c)
	}
}

// queueDeadline enters a live component in the seal queue, unless its
// horizon is unbounded.
func (s *Session) queueDeadline(c *sessComponent) {
	if horizon := s.compHorizon(c); horizon > 0 {
		s.deadlines.push(deadline{at: c.maxTs + horizon, c: c, gen: c.gen})
	}
}

// requeueDeadlines rebuilds the seal queue from the live components, for
// when a host's closing has shortened or bounded their horizons.
func (s *Session) requeueDeadlines() {
	if !s.continuous {
		return
	}
	clear(s.deadlines)
	s.deadlines = s.deadlines[:0]
	for _, c := range s.comps {
		if !c.sealed {
			s.queueDeadline(c)
		}
	}
}

// rollStale is the rolling seal's Drain-time scan: every live component
// holding no BEGIN whose oldest record has fallen two horizons behind
// gives up its records older than one horizon as a prefix (rollPrefix),
// which stage 1 correlates and absorbs on the spot. Like the forced seal
// it runs against the activity clock only.
//
// The prefixes are correlated one at a time on stage 1's own scratch:
// they are small, and rolling is Drain's last step, after emit, so no
// release waits on them.
func (s *Session) rollStale() {
	if !s.continuous {
		return
	}
	for _, c := range s.comps {
		if c.sealed || c.minBegin != noBound {
			continue
		}
		horizon := s.compHorizon(c)
		if horizon <= 0 || c.oldest() >= s.maxTs-2*horizon {
			continue
		}
		s.growScratch(1)
		s.absorb(s.correlateComponent(s.scratch[0], s.rollPrefix(c, s.maxTs-horizon)))
	}
}

// oldest returns the timestamp of the component's first-buffered record.
func (c *sessComponent) oldest() time.Duration {
	ts := noBound
	for _, r := range c.runs {
		ts = min(ts, r.recs[0].a.Timestamp)
	}
	return ts
}

// rollPrefix is the rolling seal: it splits off the records of a
// BEGIN-less live component that lie older than floor (maxTs − horizon)
// and returns them as a component of their own, ready to correlate,
// while the rest lives on as the component under the same root. A
// never-idle component — a §5.3.3 noise connection — would otherwise
// hold every record it ever received until Close. rollStale rolls only
// once the oldest record is two horizons old, so each prefix carries
// about one horizon of records.
//
// The prefix is not tombstoned (its root lives on), takes no component
// id of its own (it roots no graph, so emission tie-breaks cannot move),
// counts in neither Shards nor ForcedSeals, and carries no provenance.
//
// Why no later graph can reference a rolled record. Every graph is
// rooted at a BEGIN, and the component holds none, so no graph reaches
// any of its records yet. A record joins a graph only through a context
// or a channel that already carries that graph, and flow.Incremental
// fuses on both when the record arrives; so a future graph reaches this
// component's records only through records pushed later, all of which
// follow the graph's BEGIN. That BEGIN is not yet pushed, and under the
// sender-liveness presumption that watermark() and the forced seals
// already rest on, no open stream delivers a record older than floor:
// the BEGIN, and everything causally after it, lands at or above floor,
// in the suffix this component keeps. A record older than floor arriving
// later violates the presumption, as a late link does; the root is not
// tombstoned, so it joins the suffix instead of being counted.
// Per-host run order is preserved: each run gives up its leading
// records only, so even an out-of-order replay run stays in push order.
func (s *Session) rollPrefix(c *sessComponent, floor time.Duration) *sessComponent {
	p := s.newSessComponent(c.id, c.maxTs, c.root)
	kept := c.runs[:0]
	for _, r := range c.runs {
		k := 0
		for k < len(r.recs) && r.recs[k].a.Timestamp < floor {
			k++
		}
		if k == 0 {
			kept = append(kept, r)
			continue
		}
		if k < len(r.recs) {
			// Sized for the whole run: the suffix grows back to about
			// two horizons before it rolls again.
			kept = append(kept, hostRun{host: r.host, recs: append(s.runFree.get(len(r.recs)), r.recs[k:]...)})
		}
		p.runs = append(p.runs, hostRun{host: r.host, recs: r.recs[:k]})
		p.size += k
		s.runFree.shrink(cap(r.recs)) // the whole array goes with the prefix
	}
	clear(c.runs[len(kept):])
	c.runs = kept
	c.size -= p.size
	return p
}

// seal marks a component sealed and queues it for the next dispatch. Its
// buffers never grow again: in continuous mode the flow partition
// tombstones its root, so a straggler activity becomes a counted late
// link on a fresh component instead of touching sealed buffers.
func (s *Session) seal(c *sessComponent) {
	c.sealed = true
	s.runFree.retire(c)
	if s.continuous {
		s.inc.Seal(c.root)
	}
	s.unsent = append(s.unsent, c)
}

// dispatch correlates every component sealed since the last barrier
// and absorbs the results in deterministic creation order. Stage 1 takes
// components off the batch itself, helped by up to Workers−1 goroutines
// started for this batch only, and waits for them before absorbing; so a
// Workers=1 session starts no goroutine, and a caller pushing faster than
// correlation keeps up is held at the barrier — the backpressure that,
// through the ingest queue, reaches TCP. The flow-bookkeeping prune is
// scheduled here too, where maxTs is a deterministic function of the
// event stream and the Drain cadence.
func (s *Session) dispatch() {
	ready := s.unsent
	if len(ready) == 0 {
		return
	}
	slices.SortFunc(ready, func(a, b *sessComponent) int { return a.id - b.id })
	if s.continuous {
		for _, c := range ready {
			// Keep late-link detection alive exactly as long as the
			// liveness bounds admit stragglers, then prune.
			lag := s.compHorizon(c)
			if lag <= 0 {
				lag = s.maxHorizon
			}
			s.inc.SchedulePrune(c.root, s.maxTs+lag)
		}
	}
	s.shards += len(ready)
	s.results = slices.Grow(s.results[:0], len(ready))[:len(ready)]
	s.next.Store(0)
	n := min(s.workers, len(ready))
	s.growScratch(n)
	s.helpers.Add(n - 1)
	for k := 1; k < n; k++ {
		go s.help(s.scratch[k])
	}
	s.correlateBatch(s.scratch[0])
	s.helpers.Wait()
	for i := range s.results {
		s.absorb(s.results[i])
		s.results[i] = sessShardResult{}
	}
	clear(ready)
	s.unsent = ready[:0]
}

// correlateBatch correlates unsent components until none is left to
// take. Stage 1 leaves unsent alone until every helper is done.
func (s *Session) correlateBatch(sc *shardScratch) {
	for {
		i := int(s.next.Add(1)) - 1
		if i >= len(s.unsent) {
			return
		}
		s.results[i] = s.correlateComponent(sc, s.unsent[i])
	}
}

// help is one helper goroutine's share of a batch.
func (s *Session) help(sc *shardScratch) {
	defer s.helpers.Done()
	s.correlateBatch(sc)
}

// growScratch makes sure there are at least n shardScratches.
func (s *Session) growScratch(n int) {
	for len(s.scratch) < n {
		s.scratch = append(s.scratch, newShardScratch(s.rcfg))
	}
}

// growable reports whether any still-open declared host could push an
// activity joining this component.
func (s *Session) growable(c *sessComponent) bool {
	for _, hn := range c.contrib {
		if hh := s.hosts[hn]; hh != nil && hh.open {
			return true
		}
	}
	return false
}

// absorb folds one shard result into the session aggregates. Runs on
// stage 1 only, so the comps map and aggregates stay single-owner.
func (s *Session) absorb(r sessShardResult) {
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
	for _, run := range r.comp.runs {
		s.runFree.put(run.recs)
	}
	s.recycleComponent(r.comp)
}

// watermark returns the END-timestamp bound below which no future graph
// can appear; it is noBound when no BEGIN is resident and no host is
// open — everything may go. Every CAG's root is a BEGIN and its END is
// stamped after it by the same entry-tier context, and the engine gives
// both vertices their first record's timestamp, so END ≥ root BEGIN. A
// future graph's BEGIN is either buffered in a resident component
// (sealed ones stay in comps until their result is absorbed), so its END ≥
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
func (s *Session) watermark() time.Duration {
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
func (s *Session) emit(all bool) {
	if len(s.finished) == 0 {
		return
	}
	wm := noBound
	if !all {
		wm = s.watermark()
	}
	for len(s.finished) > 0 && (wm == noBound || s.finished[0].end < wm) {
		g := s.finished.pop().g
		if len(s.sinks) == 0 {
			s.emitted = append(s.emitted, g)
			continue
		}
		for _, k := range s.sinks {
			k.ConsumeGraph(g)
		}
	}
}

// Drain runs the correlator until no further candidate is safely
// decidable, returning the number of activities processed this call: it
// correlates the components force-sealed since the last Drain (in
// continuous mode, by the push or heartbeat that carried the activity
// clock past their horizon) and releases the graphs the watermark
// permits. Last, it correlates the aged records of never-idle components
// that hold no BEGIN (see Options.SealAfter); rolling comes last because
// such a prefix roots no graph, so no release waits on it. Seals never
// wait for a Drain, so the cadence decides only when graphs leave, not
// which graphs exist.
func (s *Session) Drain() int {
	start := time.Now()
	s.dispatch()
	if s.continuous {
		s.inc.PruneBefore(s.maxTs)
	}
	s.emit(false)
	s.rollStale()
	s.workTime += time.Since(start)
	n := s.uncounted
	s.uncounted = 0
	return n
}

// Close marks every stream complete, drains the remainder and returns the
// final result. Closing twice returns the same result.
func (s *Session) Close() *Result {
	if s.closed {
		return s.final
	}
	start := time.Now()
	for _, h := range s.hosts {
		h.open = false
	}
	s.sealCompleted()
	s.dispatch()
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
