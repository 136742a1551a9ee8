// Package ranker implements the candidate-selection half of the Correlator
// (§4.1 of the paper). Activities logged on different nodes arrive as
// per-node logs (Source), each ordered by its node's local clock. The
// ranker fetches them into per-node queues under a sliding time window
// and repeatedly picks the next candidate for the engine:
//
//	Rule 1: a queue-head RECEIVE whose matching SEND is already in the
//	        engine's mmap is the candidate.
//	Rule 2: otherwise the head with the lowest type priority
//	        (BEGIN < SEND < END < RECEIVE < MAX) is the candidate, so a
//	        SEND always reaches the engine before its RECEIVE.
//
// Two disturbances are tolerated (§4.3): noise activities are removed by
// attribute filters and the is_noise check (Fig. 5), and the multi-processor
// concurrency disturbance (Fig. 6) is broken by swapping a blocked RECEIVE
// head with a later activity in its queue.
//
// The ranker ranks copies, not records. Each queue copies its source's
// records in blocks of rankBlock: one tight loop copies every record's
// ranking keys (type, timestamp, size) into a contiguous entry array, so
// the cache misses on records scattered across the session's slabs are
// taken together rather than one at a time, and a second loop applies the
// attribute filter and interns each record on the engine while it is
// still in cache. Rules 1 and 2, the window top-up, the swap and is_noise
// then read only the entries. A queue holds its window plus at most one
// block, however large the component.
package ranker

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/activity"
	"repro/internal/engine"
)

// Debug enables the package's internal assertions, assertNoBufferedSend
// and assertOrds. Tests flip it directly; set RANKER_DEBUG=1 to enable it
// in a normal build. Off by default: the first is quadratic in the buffer.
var Debug = os.Getenv("RANKER_DEBUG") != ""

// Source is one node's log: its activities in that node's local-clock
// order. The ranker reads Recs and never writes it.
type Source struct {
	Host string
	Recs []*activity.Activity
}

// NewSliceSource returns the Source of one node's log. The slice must
// already be in local-timestamp order (a kernel log is; SplitByHost sorts).
func NewSliceSource(host string, as []*activity.Activity) Source {
	return Source{Host: host, Recs: as}
}

// sortByTimestamp sorts a node log in place by timestamp (stable, so
// same-timestamp records keep log order). Step 1 of the paper's algorithm
// sorts each node's activities by local timestamps in the first round.
func sortByTimestamp(as []*activity.Activity) {
	sort.SliceStable(as, func(i, j int) bool { return as[i].Timestamp < as[j].Timestamp })
}

// SplitByHost partitions a merged trace into per-host logs, each sorted by
// local timestamp, and returns deterministic host order.
func SplitByHost(as []*activity.Activity) map[string][]*activity.Activity {
	byHost := make(map[string][]*activity.Activity)
	for _, a := range as {
		byHost[a.Ctx.Host] = append(byHost[a.Ctx.Host], a)
	}
	for _, log := range byHost {
		sortByTimestamp(log)
	}
	return byHost
}

// Filter inspects an activity as its block is loaded and returns true to
// drop it at fetch — the attribute-based noise filtering of §4.3 (program
// name, IP, port).
type Filter func(*activity.Activity) bool

// AttributeFilter builds a Filter from deny-lists, mirroring the paper's
// example of filtering rlogin and ssh by program name.
type AttributeFilter struct {
	DenyPrograms map[string]bool
	DenyIPs      map[string]bool
	DenyPorts    map[int]bool
}

// Func returns the Filter closure; it interns the denied IPs once.
func (f AttributeFilter) Func() Filter {
	denyIPs := make(map[activity.Sym]bool, len(f.DenyIPs))
	for ip, deny := range f.DenyIPs {
		denyIPs[activity.Syms.Intern(ip)] = deny
	}
	return func(a *activity.Activity) bool {
		if f.DenyPrograms[a.Ctx.Program] {
			return true
		}
		if denyIPs[a.Chan.Src.IP] || denyIPs[a.Chan.Dst.IP] {
			return true
		}
		if f.DenyPorts[int(a.Chan.Src.Port)] || f.DenyPorts[int(a.Chan.Dst.Port)] {
			return true
		}
		return false
	}
}

// Config parametrises a Ranker.
type Config struct {
	// Window is the sliding time window size (§4.1). Any value > 0 is
	// valid; it bounds how far past the minimal buffered timestamp the
	// ranker prefetches, trading memory for fetch batching.
	Window time.Duration

	// IPToHost maps node IP addresses to host names for every *traced*
	// node. The ranker uses it to decide whether the SEND matching a
	// blocked RECEIVE could still arrive (sender traced and not exhausted)
	// or can never arrive (sender untraced => noise).
	IPToHost map[string]string

	// Filter drops activities at fetch time; nil keeps everything.
	Filter Filter

	// PaperExactNoise, when set, makes is_noise exactly the Fig. 5
	// predicate (no pending SEND in mmap and none in the ranker buffer)
	// without consulting sender liveness. The default (false) additionally
	// requires that the sender cannot produce the SEND anymore, which keeps
	// accuracy at 100% even when the window is far smaller than the clock
	// skew. Used for ablation. Under channel-closure sharding the predicate
	// is served per shard (see matchingSendVisible for the invariant): a
	// shard-local answer equals the global one, so exact mode runs on the
	// streaming engine like every other mode.
	PaperExactNoise bool
}

// Stats counts ranker behaviour for the evaluation harness.
type Stats struct {
	Fetched       uint64 // activities admitted to the buffer
	Delivered     uint64 // candidates handed to the engine
	FilterDropped uint64 // removed by the attribute filter
	NoiseDropped  uint64 // removed by is_noise
	Swaps         uint64 // concurrency-disturbance head swaps (Fig. 6)
	Extensions    uint64 // forced window extensions while heads blocked
	ForcedPops    uint64 // blocked RECEIVE delivered unmatched (loss etc.)
	PeakBuffered  int    // max activities resident in the queues
}

// rankBlock is how many records a queue copies out of its source at a
// time: enough that the block's cache misses overlap, few enough that
// the block stays in cache for the interning loop that follows.
const rankBlock = 256

// entry is one record's ranking keys, copied out of the record when its
// block is loaded, with its ordinals on the ranker's engine, interned
// once at load. a is dereferenced again only to deliver it and on the
// rare is_noise path.
type entry struct {
	a    *activity.Activity
	ts   time.Duration
	size int64
	o    engine.Ords
	typ  activity.Type
	drop bool // the attribute filter rejects it: skipped, not admitted
}

// queue is one source's entries. src.Recs[:pos] have been loaded.
// buf[head:n] is the admitted window, the buffer the paper's rules see;
// buf[cur:] is the loaded block not yet fetched. A filter-dropped entry is
// skipped as the cursor passes it and the next admitted entry is moved
// down over it, so buf[n:cur] is dead.
type queue struct {
	src          Source
	pos          int
	buf          []entry
	head, n, cur int
}

func (q *queue) len() int { return q.n - q.head }

// exhausted reports whether the cursor has passed every record of the
// source, filter-dropped ones included.
func (q *queue) exhausted() bool { return q.cur == len(q.buf) && q.pos == len(q.src.Recs) }

// peek returns the head entry, or nil when the buffer is empty. The
// pointer is valid until the queue next changes.
func (q *queue) peek() *entry {
	if q.head >= q.n {
		return nil
	}
	return &q.buf[q.head]
}

func (q *queue) pop() entry {
	e := q.buf[q.head]
	q.buf[q.head] = entry{}
	q.head++
	return e
}

// at returns the i-th buffered element (0 = head).
func (q *queue) at(i int) *entry { return &q.buf[q.head+i] }

// promote moves element i (relative to head) to the head, shifting the
// intervening elements back by one — the paper's Fig. 6 swap generalised to
// depth i.
func (q *queue) promote(i int) {
	x := q.buf[q.head+i]
	copy(q.buf[q.head+1:q.head+i+1], q.buf[q.head:q.head+i])
	q.buf[q.head] = x
}

// Ranker chooses candidate activities for the engine.
type Ranker struct {
	cfg    Config
	queues []*queue
	eng    *engine.Engine
	stats  Stats

	// bufferedSends counts SEND activities currently in the buffer, per
	// channel ordinal on eng — the "buffer of ranker" half of the is_noise
	// predicate. It covers every ordinal a loaded record carries.
	bufferedSends []int32
	buffered      int
	ipHost        map[activity.Sym]string // cfg.IPToHost by interned IP
}

// New builds a ranker over the given per-node sources that feeds eng:
// each loaded record is interned on eng, whose mmap also answers Rule 1
// and is_noise. Sources are ranked in the order given; use deterministic
// ordering for reproducible runs.
func New(cfg Config, eng *engine.Engine, sources []Source) *Ranker {
	if cfg.Window <= 0 {
		cfg.Window = time.Millisecond
	}
	r := &Ranker{
		cfg:    cfg,
		ipHost: make(map[activity.Sym]string, len(cfg.IPToHost)),
	}
	for ip, host := range cfg.IPToHost {
		r.ipHost[activity.Syms.Intern(ip)] = host
	}
	r.Reset(eng, sources)
	return r
}

// Reset rearms the ranker over fresh sources and a freshly Reset engine,
// reusing the queue buffers and SEND-counter capacity of the previous run.
// A continuous session correlates thousands of small sealed components on
// one ranker, and rebuilding it for each one dominated the steady-state
// allocation profile. The configuration is kept from New; only the
// per-run state is cleared.
func (r *Ranker) Reset(eng *engine.Engine, sources []Source) {
	r.eng = eng
	r.stats = Stats{}
	r.buffered = 0
	r.bufferedSends = r.bufferedSends[:0]
	if cap(r.queues) < len(sources) {
		r.queues = append(r.queues[:cap(r.queues)], make([]*queue, len(sources)-cap(r.queues))...)
	}
	r.queues = r.queues[:len(sources)]
	for i, s := range sources {
		q := r.queues[i]
		if q == nil {
			q = &queue{}
			r.queues[i] = q
		}
		q.src, q.pos = s, 0
		clear(q.buf)
		q.buf = q.buf[:0]
		q.head, q.n, q.cur = 0, 0, 0
	}
}

// Stats returns a copy of the counters.
func (r *Ranker) Stats() Stats { return r.stats }

// load copies q's next block of at most rankBlock records out of its
// source. It runs only once the cursor has passed the previous block.
// When the block does not fit behind the admitted window, the window
// slides to the front of buf, or moves to a buffer sized for it and one
// block, so a queue never holds more than its largest window and one
// block. Returns false when the source is exhausted.
func (r *Ranker) load(q *queue) bool {
	rest := q.src.Recs[q.pos:]
	if len(rest) == 0 {
		return false
	}
	k := min(len(rest), rankBlock)
	if live := q.len(); live+k > cap(q.buf) {
		buf := make([]entry, live, live+rankBlock)
		copy(buf, q.buf[q.head:q.n])
		q.buf, q.head, q.n = buf, 0, live
	} else if q.n+k > cap(q.buf) {
		copy(q.buf, q.buf[q.head:q.n])
		q.head, q.n = 0, live
	}
	clear(q.buf[q.n:]) // what the slide vacated and the dead entries
	q.buf = q.buf[:q.n+k]
	q.cur = q.n
	blk := q.buf[q.n:]
	for i, a := range rest[:k] {
		blk[i] = entry{a: a, ts: a.Timestamp, size: a.Size, typ: a.Type}
	}
	q.pos += k
	for i := range blk {
		e := &blk[i]
		if r.cfg.Filter != nil && r.cfg.Filter(e.a) {
			e.drop = true
			continue
		}
		e.o = r.eng.Intern(e.a)
		if n := int(e.o.Chan) + 1; n > len(r.bufferedSends) {
			r.bufferedSends = append(r.bufferedSends, make([]int32, n-len(r.bufferedSends))...)
		}
	}
	return true
}

// upcoming returns the entry the cursor reaches next, filter-dropped or
// not, loading a block when the last one is spent; nil when q's source
// is exhausted.
func (r *Ranker) upcoming(q *queue) *entry {
	if q.cur == len(q.buf) && !r.load(q) {
		return nil
	}
	return &q.buf[q.cur]
}

// fetchOne advances q's cursor to the next entry the attribute filter
// keeps and admits it to the window. Returns false when the source is
// exhausted.
func (r *Ranker) fetchOne(q *queue) bool {
	for {
		e := r.upcoming(q)
		if e == nil {
			return false
		}
		q.cur++
		if e.drop {
			r.stats.FilterDropped++
			continue
		}
		q.buf[q.n] = *e // moves it down over the dropped entries passed
		q.n++
		r.buffered++
		if r.buffered > r.stats.PeakBuffered {
			r.stats.PeakBuffered = r.buffered
		}
		if e.typ == activity.Send {
			r.bufferedSends[e.o.Chan]++
		}
		r.stats.Fetched++
		return true
	}
}

// refill implements the sliding-window fetch: every live queue gets at
// least one buffered activity, and each queue is topped up with everything
// within [minTs, minTs+Window] of the minimal buffered head timestamp.
func (r *Ranker) refill() {
	for _, q := range r.queues {
		if q.len() == 0 {
			r.fetchOne(q)
		}
	}
	minTs, ok := r.minHeadTs()
	if !ok {
		return
	}
	horizon := minTs + r.cfg.Window
	for _, q := range r.queues {
		for {
			next := r.upcoming(q)
			if next == nil || next.ts > horizon {
				break
			}
			if !r.fetchOne(q) {
				break
			}
		}
	}
}

func (r *Ranker) minHeadTs() (time.Duration, bool) {
	var minTs time.Duration
	found := false
	for _, q := range r.queues {
		if h := q.peek(); h != nil {
			if !found || h.ts < minTs {
				minTs = h.ts
				found = true
			}
		}
	}
	return minTs, found
}

// take removes the head of q, maintains buffer accounting, and returns it.
func (r *Ranker) take(q *queue) (*activity.Activity, engine.Ords) {
	e := q.pop()
	if Debug {
		r.assertOrds(e)
	}
	r.buffered--
	if e.typ == activity.Send {
		r.bufferedSends[e.o.Chan]--
	}
	r.stats.Delivered++
	return e.a, e.o
}

// Rank returns the next candidate activity for the engine, or nil when all
// sources are exhausted and the buffers are empty.
func (r *Ranker) Rank() *activity.Activity {
	a, _ := r.Next()
	return a
}

// Next is Rank that also returns the candidate's ordinals on the ranker's
// engine, for Engine.HandleOrds.
func (r *Ranker) Next() (*activity.Activity, engine.Ords) {
	for {
		r.refill()

		// Rule 1: a head RECEIVE whose SEND already reached the engine —
		// size-aware: the pending SEND must cover this segment's bytes.
		// The floor of 1 byte keeps a zero-size RECEIVE from matching
		// vacuously (PendingBytes reads 0 when nothing is pending); the
		// engine cannot attach it either way.
		for _, q := range r.queues {
			h := q.peek()
			if h != nil && h.typ == activity.Receive &&
				r.eng.PendingBytes(h.o.Chan) >= max(h.size, 1) {
				return r.take(q)
			}
		}

		// Rule 2: the head with the lowest type priority; timestamp then
		// host order break ties deterministically.
		best := -1
		for i, q := range r.queues {
			h := q.peek()
			if h == nil {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			b := r.queues[best].peek()
			if h.typ.Priority() < b.typ.Priority() ||
				(h.typ.Priority() == b.typ.Priority() && h.ts < b.ts) {
				best = i
			}
		}
		if best < 0 {
			return nil, engine.Ords{} // all queues and sources drained
		}
		if h := r.queues[best].peek(); h.typ != activity.Receive {
			return r.take(r.queues[best])
		}

		// Every head is an unmatched RECEIVE: disturbance handling.
		if r.swapBlockedHead() {
			r.stats.Swaps++
			continue
		}
		if r.dropNoiseHead() {
			continue
		}
		if r.extendWindow() {
			r.stats.Extensions++
			continue
		}
		// Nothing can unblock (activity loss or untraceable input):
		// force-deliver the oldest RECEIVE so the stream keeps draining.
		r.stats.ForcedPops++
		return r.take(r.queues[best])
	}
}

// swapBlockedHead implements the Fig. 6 concurrency-disturbance fix: in a
// queue whose head is a blocked RECEIVE, promote the first buffered
// non-RECEIVE activity to the head — provided no earlier buffered element
// shares its context, so per-context ordering (which the engine's cmap
// relies on) is preserved.
func (r *Ranker) swapBlockedHead() bool {
	for _, q := range r.queues {
		n := q.len()
		if n < 2 {
			continue
		}
		for i := 1; i < n; i++ {
			x := q.at(i)
			if x.typ == activity.Receive {
				continue
			}
			safe := true
			for j := 0; j < i; j++ {
				if q.at(j).o.Ctx == x.o.Ctx {
					safe = false
					break
				}
			}
			if safe {
				q.promote(i)
				return true
			}
			break // an unsafe promotion blocks shallower ones too
		}
	}
	return false
}

// dropNoiseHead applies is_noise (Fig. 5) to the queue heads: a RECEIVE is
// noise when no matching SEND is pending in the engine's mmap and none is
// buffered in the ranker. Unless PaperExactNoise is set, the ranker also
// requires that the sender can no longer produce the SEND (its node is
// untraced, or its source is exhausted); this keeps legitimate RECEIVEs
// alive when the window is much smaller than the clock skew.
func (r *Ranker) dropNoiseHead() bool {
	for _, q := range r.queues {
		h := q.peek()
		if h == nil || h.typ != activity.Receive {
			continue
		}
		if r.isNoise(h) {
			r.take(q) // removes from buffer with accounting
			r.stats.Delivered--
			r.stats.NoiseDropped++
			return true
		}
	}
	return false
}

// matchingSendVisible answers the Fig. 5 question — "is there a pending
// matching SEND anywhere in the window?" — from the two indexes this
// ranker already maintains, both indexed by the RECEIVE's channel
// ordinal: the engine's mmap of unconsumed SENDs (Engine.PendingBytes)
// and the count of SENDs still buffered in the window (bufferedSends).
//
// Shard-closure invariant: the answer needs no global view. The flow
// partition (internal/flow) is a union-find closed over channels — every
// activity unions with its connection's node, and both directions of a
// connection share one node — so every SEND that could ever match a
// RECEIVE (same Channel) is in the RECEIVE's component, and therefore
// feeds the same ranker+engine pass. Ordinals are local to that pass: the
// engine interns every record the ranker loads, so the matching SEND,
// buffered or already handled, carries the same channel ordinal as the
// RECEIVE, and an ordinal no SEND of the pass carries reads zero in both
// indexes. A shard-local "no" is a global "no". The streaming session
// asserts the component side of this at ingest when Debug is set (no
// Channel resolves to two live components), internal/flow's
// TestChanKeyNeverSplits fuzzes it, and Debug mode cross-checks the
// ordinals (assertOrds) and the bufferedSends counter
// (assertNoBufferedSend) against the records themselves.
func (r *Ranker) matchingSendVisible(ch int32) bool {
	return r.eng.PendingBytes(ch) > 0 || r.bufferedSends[ch] > 0
}

// assertNoBufferedSend (Debug only) re-derives the buffered SEND count of
// a blocked RECEIVE's channel by scanning the buffer for its Channel, and
// panics if the ordinal-indexed counter the fast path trusts disagrees.
func (r *Ranker) assertNoBufferedSend(h *entry) {
	n := int32(0)
	for _, q := range r.queues {
		for i := 0; i < q.len(); i++ {
			if x := q.at(i); x.typ == activity.Send && x.a.Chan == h.a.Chan {
				n++
			}
		}
	}
	if n != r.bufferedSends[h.o.Chan] {
		panic(fmt.Sprintf("ranker: bufferedSends[%d] = %d but the buffer holds %d SENDs on %v",
			h.o.Chan, r.bufferedSends[h.o.Chan], n, h.a.Chan))
	}
}

// assertOrds (Debug only) checks that an entry's ordinals still name its
// record's Channel and CtxKey on the engine: that the engine was not
// Reset or swapped under the buffered entries.
func (r *Ranker) assertOrds(e entry) {
	if o, ok := r.eng.Lookup(e.a); !ok || o != e.o {
		panic(fmt.Sprintf("ranker: entry ordinals %+v, engine has %+v (interned %v) for %v / %+v",
			e.o, o, ok, e.a.Chan, e.a.CtxK))
	}
}

func (r *Ranker) isNoise(h *entry) bool {
	if Debug {
		r.assertNoBufferedSend(h)
	}
	if r.matchingSendVisible(h.o.Chan) {
		return false
	}
	if r.cfg.PaperExactNoise {
		return true
	}
	senderHost, traced := r.ipHost[h.a.Chan.Src.IP]
	if !traced {
		return true // the sender is outside the traced deployment
	}
	for _, q := range r.queues {
		if q.src.Host == senderHost {
			return q.exhausted() // an exhausted sender can never send it
		}
	}
	return true // traced host with no source: nothing more can arrive
}

// extendWindow force-fetches one more activity from every live source,
// growing the buffer beyond the nominal window so a deep matching SEND can
// surface. Returns false when every source is exhausted.
func (r *Ranker) extendWindow() bool {
	any := false
	for _, q := range r.queues {
		if r.fetchOne(q) {
			any = true
		}
	}
	return any
}
