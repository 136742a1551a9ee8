package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/activity"
)

// ErrIngestClosed is returned for operations offered after Close.
var ErrIngestClosed = errors.New("core: ingest closed")

// IngestOptions parametrises the serialized ingest front.
type IngestOptions struct {
	// Buffer is the bounded operation queue depth — the backpressure
	// valve. When correlation falls behind, the queue fills, Push blocks,
	// the network collector stops reading its sockets, and TCP pushes the
	// stall back to the agents. Default 1024.
	Buffer int

	// DrainEvery is how many applied operations elapse between drain
	// points — the same cadence knob as offline replay. Default 1024
	// (replayDrainEvery). Seals follow the applied stream, not the drains,
	// so any cadence yields the same graphs; it decides only how soon they
	// leave. Use 1 to drain after every operation.
	DrainEvery int

	// FlushInterval, when positive, also drains on a wall-clock period
	// while the queue is idle, so a traffic lull cannot leave decidable
	// CAGs sitting in the session. This is the one wall-clock input to an
	// otherwise activity-time pipeline: it changes *when* graphs emerge,
	// never *what* they contain or their order.
	FlushInterval time.Duration

	// OnApplied, when non-nil, observes every applied record (ts = its
	// timestamp) and heartbeat, on the ingest goroutine — the same
	// goroutine that fires the session's sinks, so a live.Monitor may be
	// driven from both without extra locking. Application happens in
	// merged timestamp order across hosts (see Ingest).
	OnApplied func(host string, ts time.Duration)

	// Release, when non-nil, receives every PushBatch record exactly once,
	// when the ingest goroutine is done with it: applied, rejected at
	// receipt, or skipped behind its host's sticky error — the hook that
	// returns pooled decode-side records to their pool
	// (activity.ReleaseRecord). A record may be held across many
	// operations before that (the ordering front holds batches by
	// reference); the session has copied whatever it keeps by the time
	// Release fires. Single-record Push callers keep ownership of their
	// records; only batched records are released.
	Release func(a *activity.Activity)

	// Sinks are appended to the wrapped session's emission chain before
	// the ingest goroutine starts (see Options.Sinks and GraphSink).
	// Sinks fire on the ingest goroutine — the same goroutine as
	// OnApplied — so a live.Monitor registered here needs no locking.
	Sinks []GraphSink
}

// Ingest is the serialized front of a Session: Sessions demand
// single-goroutine use, the network collector delivers from one goroutine
// per agent connection. Ingest owns the session goroutine and funnels
// concurrent PushBatch/Heartbeat/CloseHost calls through a bounded queue,
// draining on the configured cadence. It satisfies transport.Sink.
//
// Ingest is also the ordering front. Agents batch independently, so
// operations arrive in an arbitrary cross-host interleaving, and the
// online partition can only answer a RECEIVE that precedes its SEND by
// over-merging (flow.Incremental) — on a busy wire the whole run fuses
// into one component that seals at Close. The run goroutine therefore
// keeps one FIFO per declared host and applies the globally oldest held
// item only once every other still-open host has shown a timestamp at or
// past it (equal timestamps go to the host sorting first, then per-host
// order — the sequential ranker's tie-break). The session receives the
// same merged-timestamp sequence an in-process replay pushes, whatever
// the agents' batching did; a one-host or already-ordered stream passes
// straight through. A host with a seal horizon is presumed, as
// Session.watermark presumes, to hold nothing older than the newest
// received timestamp minus that horizon, so a dead agent delays its peers
// by its horizon instead of forever; without a horizon its peers' records
// are held until it speaks, closes, or the ingest closes. Held records
// are not capped — they cost what the session would have spent buffering
// them. The merge is only as good as the hosts' clocks: under cross-host
// skew the residue still reaches the partition out of order and
// over-merges, which is safe (never a split).
//
// Errors are sticky per host: the first failure of a host's operation
// (timestamp regression, unknown host, push-after-close) is detected when
// the run goroutine receives it, recorded, and returned to that host's
// next caller, without disturbing other streams. Receipt is asynchronous
// — a Push error may surface one call late. CloseHost and Sync are
// synchronous up to receipt: they return once everything offered before
// them is received and ordered. A closed host's stream is sealed in the
// session when the last of its held items has been applied, i.e. once
// every peer has passed it; Close applies everything still held.
type Ingest struct {
	session *Session
	opts    IngestOptions

	closeMu sync.RWMutex // guards ops against send-on-closed
	closed  bool
	ops     chan ingestOp

	mu      sync.Mutex
	hostErr map[string]error

	// The ordering front, owned by the run goroutine.
	front      []*frontHost // declared hosts, sorted by name
	byName     map[string]*frontHost
	maxRecv    time.Duration // newest timestamp received from any host
	held       int           // records received, not yet applied
	peakHeld   int
	bounding   *frontHost // whose progress the oldest held item waits on
	sinceDrain int        // items applied since the last drain point

	done  chan struct{}
	final *Result
}

// frontHost is one declared host's side of the ordering front.
type frontHost struct {
	name    string
	horizon time.Duration // the session's seal horizon for it; 0 = none
	q       []frontItem   // received, not yet applied, in host order
	head    int           // q[head:] is live
	held    int           // records in q
	bound   time.Duration // newest timestamp received, record or heartbeat; never before the first
	ended   bool          // CloseHost received: nothing more is accepted
	closed  bool          // ended and drained: closed in the session
}

// frontItem is one held operation: a run of records or, with recs nil, a
// heartbeat. Batches are held by reference (the front owns a PushBatch
// slice until Release) and consumed from the front of recs.
type frontItem struct {
	recs  []*activity.Activity
	owned bool          // PushBatch records: handed to Release when done
	ts    time.Duration // the heartbeat's assertion
}

func (it *frontItem) key() time.Duration {
	if it.recs != nil {
		return it.recs[0].Timestamp
	}
	return it.ts
}

// never is the floor of a host that has promised nothing yet.
const never = time.Duration(math.MinInt64)

// floor is the oldest timestamp h can still contribute: its head item
// or, with nothing held, its newest received timestamp (streams are
// monotone per host), raised under a seal horizon to the sender-liveness
// floor Session.watermark presumes.
func (h *frontHost) floor(maxRecv time.Duration) time.Duration {
	if h.head < len(h.q) {
		return h.q[h.head].key()
	}
	f := h.bound
	if h.horizon > 0 && maxRecv-h.horizon > f {
		f = maxRecv - h.horizon
	}
	return f
}

// pop drops the consumed head item, compacting once half the backing
// array is dead so a queue that never empties does not grow with the run.
func (h *frontHost) pop() {
	h.q[h.head] = frontItem{}
	h.head++
	if h.head == len(h.q) {
		h.q, h.head = h.q[:0], 0
	} else if h.head >= 32 && 2*h.head >= len(h.q) {
		n := copy(h.q, h.q[h.head:])
		clear(h.q[n:])
		h.q, h.head = h.q[:n], 0
	}
}

type ingestOpKind uint8

const (
	opBatch ingestOpKind = iota
	opHeartbeat
	opCloseHost
	opSync
	opStats
)

type ingestOp struct {
	kind  ingestOpKind
	recs  []*activity.Activity // opBatch
	owned bool                 // opBatch: PushBatch records (see frontItem)
	host  string
	ts    time.Duration
	stats *IngestStats // opStats: filled on the run goroutine
	reply chan error   // opCloseHost, opSync, opStats
}

// NewIngest wraps an open session. The session must not be used directly
// once wrapped — Ingest's goroutine owns it until Close.
func NewIngest(s *Session, opts IngestOptions) *Ingest {
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	if opts.DrainEvery <= 0 {
		opts.DrainEvery = replayDrainEvery
	}
	in := &Ingest{
		session: s,
		opts:    opts,
		ops:     make(chan ingestOp, opts.Buffer),
		hostErr: make(map[string]error),
		byName:  make(map[string]*frontHost),
		done:    make(chan struct{}),
	}
	for _, sh := range s.hosts {
		h := &frontHost{name: sh.name, horizon: sh.horizon, bound: never}
		in.front = append(in.front, h)
		in.byName[h.name] = h
	}
	sort.Slice(in.front, func(i, j int) bool { return in.front[i].name < in.front[j].name })
	for _, sink := range opts.Sinks {
		s.AddSink(sink)
	}
	go in.run()
	return in
}

// Push offers one record, blocking while the queue is full. Safe for
// concurrent use; records of one host must still arrive in host order
// (call it from one goroutine per host, as the collector does). The
// record is copied: the front may hold it long after Push returns.
func (in *Ingest) Push(a *activity.Activity) error {
	if err := in.stickyErr(a.Ctx.Host); err != nil {
		return err
	}
	cp := *a
	return in.send(ingestOp{kind: opBatch, recs: []*activity.Activity{&cp}})
}

// PushBatch offers a whole run of records — typically one decoded
// transport frame — as a single queue operation, blocking while the
// queue is full. The records are applied in order on the ingest
// goroutine with the same drain cadence as individual pushes, so a
// batched stream is indistinguishable from its unbatched equivalent. An
// error at receipt becomes the host's sticky error and the rest of that
// host's records in the batch are rejected; other hosts' records are
// unaffected. The ingest takes ownership of the batch slice and its
// records until Release has been called for each record.
func (in *Ingest) PushBatch(recs []*activity.Activity) error {
	if len(recs) == 0 {
		return nil
	}
	// Pre-check sticky errors per distinct host (batches are almost
	// always single-host: one agent connection per host).
	last := ""
	for _, a := range recs {
		if a.Ctx.Host != last {
			if err := in.stickyErr(a.Ctx.Host); err != nil {
				return err
			}
			last = a.Ctx.Host
		}
	}
	return in.send(ingestOp{kind: opBatch, recs: recs, owned: true})
}

// Heartbeat offers a liveness assertion for host (see Session.Heartbeat).
// It also advances the ordering front: a host that only heartbeats stops
// holding its peers' records.
func (in *Ingest) Heartbeat(host string, ts time.Duration) error {
	if err := in.stickyErr(host); err != nil {
		return err
	}
	return in.send(ingestOp{kind: opHeartbeat, host: host, ts: ts})
}

// ask sends op and waits for the run goroutine's reply on a one-shot
// channel (CloseHost, Sync and Stats are rare).
func (in *Ingest) ask(op ingestOp) error {
	op.reply = make(chan error, 1)
	if err := in.send(op); err != nil {
		return err
	}
	return <-op.reply
}

// CloseHost ends one host's stream, waiting until every previously
// offered operation has been received and the close is ordered behind
// them. The host stops bounding its peers at once; the session seals its
// stream when the last of its held items has been applied — once every
// peer has passed it, or at Close.
func (in *Ingest) CloseHost(host string) error {
	if err := in.stickyErr(host); err != nil {
		return err
	}
	return in.ask(ingestOp{kind: opCloseHost, host: host})
}

// Sync blocks until every operation offered before it has been received
// and ordered — a barrier for tests and status readers. Items a slower
// peer still bounds stay held; sticky errors of everything offered
// before are in place when it returns.
func (in *Ingest) Sync() error {
	return in.ask(ingestOp{kind: opSync})
}

// IngestStats is a snapshot of the ordering front: who holds what, and
// whom the merge is waiting on.
type IngestStats struct {
	Held     int    // records received but not yet applied
	PeakHeld int    // high-water mark of Held
	Bounding string // host the oldest held item waits on; "" when none is blocked
	Hosts    []IngestHostStats
}

// IngestHostStats is one declared host's row, in host-name order.
type IngestHostStats struct {
	Host  string
	Held  int           // this host's records waiting on a peer
	Bound time.Duration // newest timestamp received (record or heartbeat); 0 before the first
	Ended bool          // CloseHost received
}

// Stats returns a copy of the ordering front's state, taken on the run
// goroutine between operations (after Close: the final state).
func (in *Ingest) Stats() IngestStats {
	var st IngestStats
	if err := in.ask(ingestOp{kind: opStats, stats: &st}); err != nil {
		<-in.done // closed: the run goroutine no longer touches the front
		in.snapshot(&st)
	}
	return st
}

func (in *Ingest) snapshot(st *IngestStats) {
	st.Held, st.PeakHeld = in.held, in.peakHeld
	if in.bounding != nil {
		st.Bounding = in.bounding.name
	}
	st.Hosts = make([]IngestHostStats, len(in.front))
	for i, h := range in.front {
		st.Hosts[i] = IngestHostStats{Host: h.name, Held: h.held, Bound: max(h.bound, 0), Ended: h.ended}
	}
}

// Close shuts the queue, applies what remains — including everything the
// front still holds, in merged order — closes the session and returns
// the final result. Closing twice returns the same result.
func (in *Ingest) Close() *Result {
	in.closeMu.Lock()
	if !in.closed {
		in.closed = true
		close(in.ops)
	}
	in.closeMu.Unlock()
	<-in.done
	return in.final
}

func (in *Ingest) send(op ingestOp) error {
	in.closeMu.RLock()
	defer in.closeMu.RUnlock()
	if in.closed {
		return ErrIngestClosed
	}
	in.ops <- op
	return nil
}

func (in *Ingest) stickyErr(host string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hostErr[host]
}

func (in *Ingest) recordErr(host string, err error) {
	in.mu.Lock()
	if _, dup := in.hostErr[host]; !dup {
		in.hostErr[host] = err
	}
	in.mu.Unlock()
}

// run owns the session: it is the single goroutine calling Push/Drain/
// CloseHost/Heartbeat/Close, preserving the Session's concurrency
// contract no matter how many connections feed the queue.
func (in *Ingest) run() {
	defer close(in.done)
	var timer <-chan time.Time
	if in.opts.FlushInterval > 0 {
		ticker := time.NewTicker(in.opts.FlushInterval)
		defer ticker.Stop()
		timer = ticker.C
	}
	for {
		select {
		case op, ok := <-in.ops:
			if !ok {
				for _, h := range in.front {
					h.ended = true
				}
				in.advance()
				in.final = in.session.Close()
				return
			}
			in.receive(op)
		case <-timer:
			if in.sinceDrain > 0 {
				in.session.Drain()
				in.sinceDrain = 0
			}
		}
	}
}

// receive validates one operation against its host's stream contract —
// the checks the session would make at application, made here so the
// sticky error exists by the time the next call is offered — queues it
// on the host's FIFO, and applies whatever the merge now permits.
func (in *Ingest) receive(op ingestOp) {
	switch op.kind {
	case opBatch:
		in.receiveRecs(op.recs, op.owned)
	case opHeartbeat:
		h, err := in.admit(op.host)
		if err != nil {
			return
		}
		// A stale assertion is a no-op to the session; clamped, it keeps
		// its place in the host's item order without regressing the merge.
		ts := max(op.ts, h.bound)
		h.q = append(h.q, frontItem{ts: ts})
		in.note(h, ts)
	case opCloseHost:
		// Closing twice is fine; anything else on an ended host is not.
		h := in.byName[op.host]
		if h == nil || !h.ended {
			var err error
			if h, err = in.admit(op.host); err != nil {
				op.reply <- err
				return
			}
		}
		h.ended = true
		op.reply <- nil
	case opSync:
		op.reply <- nil
	case opStats:
		in.snapshot(op.stats)
		op.reply <- nil
	}
	in.advance()
}

// admit resolves an operation's host, or records why its stream takes
// nothing more (the first such error sticks; see Ingest).
func (in *Ingest) admit(host string) (*frontHost, error) {
	err := in.stickyErr(host)
	h := in.byName[host]
	switch {
	case err != nil:
	case h == nil:
		err = fmt.Errorf("core: unknown host %q (declare it in NewSession)", host)
	case h.ended:
		err = fmt.Errorf("core: operation on closed source %s", host)
	default:
		return h, nil
	}
	in.recordErr(host, err)
	return nil, err
}

// note advances h's received bound to ts.
func (in *Ingest) note(h *frontHost, ts time.Duration) {
	h.bound = ts
	if ts > in.maxRecv {
		in.maxRecv = ts
	}
}

// receiveRecs queues a run of records, split per host (batches are
// almost always single-host). Each host's accepted prefix is held as a
// sub-slice of the batch; from a host's first bad record on, its records
// in the batch are rejected.
func (in *Ingest) receiveRecs(recs []*activity.Activity, owned bool) {
	for len(recs) > 0 {
		host := recs[0].Ctx.Host
		h, err := in.admit(host)
		n := 0
		for err == nil && n < len(recs) && recs[n].Ctx.Host == host {
			if ts := recs[n].Timestamp; ts < h.bound {
				err = fmt.Errorf("core: %s timestamp regressed (%v after %v)", host, ts, h.bound)
				in.recordErr(host, err)
			} else {
				in.note(h, ts)
				n++
			}
		}
		if n > 0 {
			h.q = append(h.q, frontItem{recs: recs[:n], owned: owned})
			h.held += n
			in.held += n
			in.peakHeld = max(in.peakHeld, in.held)
			recs = recs[n:]
		}
		for err != nil && len(recs) > 0 && recs[0].Ctx.Host == host {
			in.release(recs[0], owned)
			recs = recs[1:]
		}
	}
}

// advance applies every held item the release rule permits: pick the
// host holding the globally oldest item, apply its items up to the
// oldest timestamp any other open host can still contribute, repeat.
// One scan over the hosts per released run, not per record. Ended hosts
// found drained are closed in the session on the way.
func (in *Ingest) advance() {
	for {
		pick, pickTs := -1, time.Duration(0)
		for i, h := range in.front {
			if h.closed {
				continue
			}
			if h.head == len(h.q) {
				if h.ended {
					in.closeHost(h)
				}
				continue
			}
			if ts := h.q[h.head].key(); pick < 0 || ts < pickTs {
				pick, pickTs = i, ts
			}
		}
		if pick < 0 {
			in.bounding = nil
			return
		}
		lim, bar := time.Duration(math.MaxInt64), (*frontHost)(nil)
		for i, h := range in.front {
			if i == pick || h.closed {
				continue
			}
			f := h.floor(in.maxRecv)
			if i < pick && f != never {
				f-- // an equal timestamp goes to the host sorting first
			}
			if f < lim {
				lim, bar = f, h
			}
		}
		if pickTs > lim {
			in.bounding = bar
			return
		}
		in.applyUpTo(in.front[pick], lim)
	}
}

// applyUpTo applies h's held items, oldest first, while their timestamp
// is at most lim.
func (in *Ingest) applyUpTo(h *frontHost, lim time.Duration) {
	for h.head < len(h.q) {
		it := &h.q[h.head]
		if it.recs == nil {
			if it.ts > lim {
				return
			}
			if err := in.session.Heartbeat(h.name, it.ts); err != nil {
				in.recordErr(h.name, err)
			} else {
				in.applied(h, it.ts)
			}
		}
		for len(it.recs) > 0 {
			rec := it.recs[0]
			if rec.Timestamp > lim {
				return
			}
			it.recs = it.recs[1:]
			h.held--
			in.held--
			// The session cannot refuse what receive admitted short of a
			// bug; a refusal still becomes the host's sticky error.
			if err := in.session.Push(rec); err != nil {
				in.recordErr(h.name, err)
			} else {
				in.applied(h, rec.Timestamp)
			}
			in.release(rec, it.owned)
		}
		h.pop()
	}
}

// release returns a PushBatch record the front is done with to its owner.
func (in *Ingest) release(rec *activity.Activity, owned bool) {
	if owned && in.opts.Release != nil {
		in.opts.Release(rec)
	}
}

// applied reports one applied item and keeps the DrainEvery cadence.
func (in *Ingest) applied(h *frontHost, ts time.Duration) {
	if in.opts.OnApplied != nil {
		in.opts.OnApplied(h.name, ts)
	}
	in.sinceDrain++
	if in.sinceDrain >= in.opts.DrainEvery {
		in.session.Drain()
		in.sinceDrain = 0
	}
}

// closeHost seals an ended, drained host's stream in the session and
// releases what the close made decidable.
func (in *Ingest) closeHost(h *frontHost) {
	h.closed = true
	if err := in.session.CloseHost(h.name); err != nil {
		in.recordErr(h.name, err)
		return
	}
	in.session.Drain()
	in.sinceDrain = 0
}
