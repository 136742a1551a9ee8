// Package ranker implements the candidate-selection half of the Correlator
// (§4.1 of the paper). Activities logged on different nodes arrive as
// per-node streams ordered by each node's local clock. The ranker fetches
// them into per-node queues under a sliding time window and repeatedly
// picks the next candidate for the engine:
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

// Source yields one node's activities in that node's local-clock order.
type Source interface {
	// Host returns the node name the stream belongs to.
	Host() string
	// Peek returns the next activity without consuming it, or nil when the
	// stream is exhausted.
	Peek() *activity.Activity
	// Pop consumes and returns the next activity, or nil when exhausted.
	Pop() *activity.Activity
}

// SliceSource adapts an in-memory slice (one node's log) to Source.
type SliceSource struct {
	host string
	as   []*activity.Activity
	pos  int
}

// NewSliceSource wraps one node's activities. The slice must already be in
// local-timestamp order (a kernel log is; SplitByHost sorts).
func NewSliceSource(host string, as []*activity.Activity) *SliceSource {
	return &SliceSource{host: host, as: as}
}

// Reset rearms the source over a new slice, reusing the struct — the
// worker-pool path rebuilds its per-component sources in place.
func (s *SliceSource) Reset(host string, as []*activity.Activity) {
	s.host, s.as, s.pos = host, as, 0
}

// Host implements Source.
func (s *SliceSource) Host() string { return s.host }

// Peek implements Source.
func (s *SliceSource) Peek() *activity.Activity {
	if s.pos >= len(s.as) {
		return nil
	}
	return s.as[s.pos]
}

// Pop implements Source.
func (s *SliceSource) Pop() *activity.Activity {
	if s.pos >= len(s.as) {
		return nil
	}
	a := s.as[s.pos]
	s.pos++
	return a
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

// Filter inspects an activity at fetch time and returns true to drop it —
// the attribute-based noise filtering of §4.3 (program name, IP, port).
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

// entry is one buffered activity with its ordinals on the ranker's
// engine, interned once at fetch.
type entry struct {
	a *activity.Activity
	o engine.Ords
}

type queue struct {
	src  *SliceSource // concrete: no interface call per record
	buf  []entry
	head int
}

// sliceOf returns s itself when it is a *SliceSource, else a SliceSource
// over everything s yields.
func sliceOf(s Source) *SliceSource {
	if sl, ok := s.(*SliceSource); ok {
		return sl
	}
	var as []*activity.Activity
	for a := s.Pop(); a != nil; a = s.Pop() {
		as = append(as, a)
	}
	return NewSliceSource(s.Host(), as)
}

func (q *queue) len() int { return len(q.buf) - q.head }

// peek returns the head entry, or nil when the buffer is empty. The
// pointer is valid until the queue next changes.
func (q *queue) peek() *entry {
	if q.head >= len(q.buf) {
		return nil
	}
	return &q.buf[q.head]
}

func (q *queue) pop() entry {
	e := q.buf[q.head]
	q.buf[q.head] = entry{}
	q.head++
	if q.head > 1024 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
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
	// predicate. It covers every ordinal a fetched record carries.
	bufferedSends []int32
	buffered      int
	ipHost        map[activity.Sym]string // cfg.IPToHost by interned IP
}

// New builds a ranker over the given per-node sources that feeds eng:
// each fetched record is interned on eng, whose mmap also answers Rule 1
// and is_noise. Sources are ranked in the order given; use deterministic
// ordering for reproducible runs. A source that is not a *SliceSource is
// read to its end here.
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
// It is the worker-pool variant of New: a continuous session correlates
// thousands of small sealed components, and rebuilding the ranker for
// each one dominated the steady-state allocation profile. The
// configuration is kept from New; only the per-run state is cleared.
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
		q.src = sliceOf(s)
		clear(q.buf[:cap(q.buf)])
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// Stats returns a copy of the counters.
func (r *Ranker) Stats() Stats { return r.stats }

// fetchOne admits the next source activity of q into its buffer, applying
// the attribute filter. Returns false when the source is exhausted.
func (r *Ranker) fetchOne(q *queue) bool {
	for {
		a := q.src.Pop()
		if a == nil {
			return false
		}
		if r.cfg.Filter != nil && r.cfg.Filter(a) {
			r.stats.FilterDropped++
			continue
		}
		o := r.eng.Intern(a)
		q.buf = append(q.buf, entry{a: a, o: o})
		r.buffered++
		if r.buffered > r.stats.PeakBuffered {
			r.stats.PeakBuffered = r.buffered
		}
		if n := int(o.Chan) + 1; n > len(r.bufferedSends) {
			r.bufferedSends = append(r.bufferedSends, make([]int32, n-len(r.bufferedSends))...)
		}
		if a.Type == activity.Send {
			r.bufferedSends[o.Chan]++
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
			next := q.src.Peek()
			if next == nil || next.Timestamp > horizon {
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
			if !found || h.a.Timestamp < minTs {
				minTs = h.a.Timestamp
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
	if e.a.Type == activity.Send {
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
			if h != nil && h.a.Type == activity.Receive &&
				r.eng.PendingBytes(h.o.Chan) >= max(h.a.Size, 1) {
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
			if h.a.Type.Priority() < b.a.Type.Priority() ||
				(h.a.Type.Priority() == b.a.Type.Priority() && h.a.Timestamp < b.a.Timestamp) {
				best = i
			}
		}
		if best < 0 {
			return nil, engine.Ords{} // all queues and sources drained
		}
		if h := r.queues[best].peek(); h.a.Type != activity.Receive {
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
			if x.a.Type == activity.Receive {
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
		if h == nil || h.a.Type != activity.Receive {
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
// engine interns every record the ranker fetches, so the matching SEND,
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
			if x := q.at(i).a; x.Type == activity.Send && x.Chan == h.a.Chan {
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
		if q.src.host == senderHost {
			return q.src.Peek() == nil // exhausted sender can never send it
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
