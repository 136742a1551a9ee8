// Package engine implements the CAG-construction half of the Correlator —
// the `correlate` procedure of Fig. 3 in the paper. The engine consumes the
// candidate activities chosen by the ranker, in ranker order, and maintains
// the paper's two indexes over unfinished CAGs:
//
//   - mmap: message identifier (end-to-end channel) → the unmatched SEND
//     vertex on that channel, with the count of bytes not yet consumed by
//     RECEIVE activities. SEND/RECEIVE matching is n-to-n (Fig. 4): a
//     sender may emit a message in several consecutive SEND segments which
//     the engine merges by size, and a receiver may drain it in several
//     RECEIVE segments which the engine counts down, materialising the
//     RECEIVE vertex when the byte count reaches zero.
//   - cmap: context identifier → the latest activity vertex observed in
//     that execution entity, used to resolve adjacent context relations.
//
// Both are per-pass ordinal tables: Intern hashes a record's directed
// Channel and its CtxKey once into dense ordinals (Ords), and mmap and
// cmap are slices indexed by them; it skips the hash when a key repeats
// the previous record's, as a host's consecutive records mostly do. The
// ranker interns each record when it loads it and carries its ordinals
// to HandleOrds; Handle interns and handles in one call. Reset forgets
// the ordinals and truncates both tables, keeping their capacity, so one
// engine correlates component after component.
//
// Vertices are carved from chunks of vertexChunk, one allocation per
// chunk rather than per vertex, and a chunk outlives Reset: the next pass
// takes its vertices from where the last one stopped. A vertex is never
// handed out twice, so graphs already returned stay valid; a graph the
// caller retains pins its vertices' chunks, as it pins its records' slab.
//
// Thread-pool context reuse (one thread serving many requests over its
// lifetime) is defeated by the same-CAG check of lines 29–32: the context
// edge into a RECEIVE is added only when the message parent and the context
// parent already belong to the same CAG.
package engine

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/cag"
)

// Stats counts engine actions; the evaluation harness reads these.
type Stats struct {
	Begins          uint64 // CAGs created
	Finished        uint64 // CAGs completed by an END
	MergedSends     uint64 // SEND segments merged into an earlier SEND (Fig. 4)
	MergedBegins    uint64 // BEGIN segments merged into the root (multi-segment request)
	MergedEnds      uint64 // END segments merged into the END vertex (multi-segment response)
	PartialReceives uint64 // RECEIVE segments that left bytes outstanding
	Receives        uint64 // RECEIVE vertices materialised
	Sends           uint64 // SEND vertices materialised

	// Discards: activities the engine could not attach. In a clean trace
	// all of these stay zero; noise and injected loss raise them.
	DiscardedSends    uint64 // SEND with no context parent
	DiscardedReceives uint64 // RECEIVE with no pending SEND on its channel
	DiscardedEnds     uint64 // END with no context parent
	OverrunReceives   uint64 // RECEIVE consumed more bytes than were sent
	ReplacedSends     uint64 // new SEND on a channel that still had pending bytes
	ThreadReuseBreaks uint64 // context edge suppressed by the same-CAG check
}

// pendingSend is one mmap slot: the live message on a channel, mutated in
// place. The zero value (nil vertex, nothing remaining) is "no pending
// SEND".
type pendingSend struct {
	vertex    *cag.Vertex
	graph     *cag.Graph
	remaining int64
	partial   []*activity.Activity // RECEIVE segments consumed so far
}

// ctxEntry is one cmap slot; a nil vertex means the context has no
// vertex yet in this pass.
type ctxEntry struct {
	vertex *cag.Vertex
	graph  *cag.Graph
}

// vertexChunk is how many vertices the engine allocates at once.
const vertexChunk = 128

// Ords are a bound record's ordinals in one engine pass: Chan indexes mmap
// by the record's directed Channel, Ctx indexes cmap by its CtxKey. They
// are valid on the engine that issued them until its next Reset.
type Ords struct{ Chan, Ctx int32 }

// Engine builds CAGs from ranked candidate activities.
type Engine struct {
	chanOrd map[activity.Channel]int32
	ctxOrd  map[activity.CtxKey]int32
	mmap    []pendingSend // by Ords.Chan
	cmap    []ctxEntry    // by Ords.Ctx

	// Intern's one-entry memo of the last record's keys and ordinals,
	// valid while lastOK: a host's consecutive records mostly share a
	// thread and often a connection, so most lookups repeat it.
	lastChan activity.Channel
	lastCtx  activity.CtxKey
	last     Ords
	lastOK   bool

	outputs []*cag.Graph
	stats   Stats
	chunk   []cag.Vertex // the unused rest of the current vertex chunk

	// resident tracks vertices held in unfinished CAGs — the engine half of
	// the Fig. 11 memory accounting. It rises as vertices are added and
	// falls when a finished CAG is emitted.
	resident     int
	peakResident int
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		chanOrd: make(map[activity.Channel]int32),
		ctxOrd:  make(map[activity.CtxKey]int32),
	}
}

// Reset returns the engine to its empty state, voiding every ordinal it
// issued, while keeping the maps' and tables' capacity and the rest of
// the vertex chunk, so one engine correlates many sealed components. The
// previous run's outputs slice is dropped, never truncated and reused,
// and its vertices are never handed out again, so graphs already handed
// to the caller stay valid.
func (e *Engine) Reset() {
	clear(e.chanOrd)
	clear(e.ctxOrd)
	clear(e.mmap) // release the pass's graphs; Intern zeroes reused slots anyway
	clear(e.cmap)
	*e = Engine{chanOrd: e.chanOrd, ctxOrd: e.ctxOrd, mmap: e.mmap[:0], cmap: e.cmap[:0], chunk: e.chunk}
}

// newVertex carves a vertex represented by a from the current chunk.
func (e *Engine) newVertex(a *activity.Activity) *cag.Vertex {
	if len(e.chunk) == 0 {
		e.chunk = make([]cag.Vertex, vertexChunk)
	}
	v := &e.chunk[0]
	e.chunk = e.chunk[1:]
	v.Init(a)
	return v
}

// Intern binds a and returns its ordinals, giving a Channel or CtxKey this
// pass has not seen the next free slot (empty) in mmap or cmap.
func (e *Engine) Intern(a *activity.Activity) Ords {
	activity.Bind(a) // hand-built records reach the engine unbound
	o := e.last
	if !e.lastOK || a.Chan != e.lastChan {
		ch, ok := e.chanOrd[a.Chan]
		if !ok {
			ch = int32(len(e.mmap))
			e.chanOrd[a.Chan] = ch
			e.mmap = append(e.mmap, pendingSend{})
		}
		o.Chan, e.lastChan = ch, a.Chan
	}
	if !e.lastOK || a.CtxK != e.lastCtx {
		ctx, ok := e.ctxOrd[a.CtxK]
		if !ok {
			ctx = int32(len(e.cmap))
			e.ctxOrd[a.CtxK] = ctx
			e.cmap = append(e.cmap, ctxEntry{})
		}
		o.Ctx, e.lastCtx = ctx, a.CtxK
	}
	e.last, e.lastOK = o, true
	return o
}

// Lookup returns the ordinals this pass gave a's Channel and CtxKey
// without assigning any; ok is false when either was never interned.
func (e *Engine) Lookup(a *activity.Activity) (o Ords, ok bool) {
	ch, okCh := e.chanOrd[a.Chan]
	ctx, okCtx := e.ctxOrd[a.CtxK]
	return Ords{Chan: ch, Ctx: ctx}, okCh && okCtx
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// PendingBytes returns the number of bytes of the unmatched SEND on the
// channel with ordinal ch that RECEIVE activities have not yet consumed,
// or 0 when none is pending — the query behind the ranker's Rule 1 and
// is_noise. Rule 1 is size-aware: a RECEIVE only becomes a candidate
// once every SEND segment it covers has reached the engine, otherwise the
// byte countdown of Fig. 4 would go negative.
func (e *Engine) PendingBytes(ch int32) int64 {
	return max(e.mmap[ch].remaining, 0)
}

// Outputs returns the finished CAGs accumulated since New or the last
// Reset, in completion order.
func (e *Engine) Outputs() []*cag.Graph { return e.outputs }

// PeakResidentVertices returns the maximum number of vertices held in
// unfinished CAGs at once.
func (e *Engine) PeakResidentVertices() int { return e.peakResident }

func (e *Engine) addResident(n int) {
	e.resident += n
	if e.resident > e.peakResident {
		e.peakResident = e.resident
	}
}

// Handle processes one candidate activity — one iteration of the Fig. 3
// while loop: Intern, then HandleOrds. It returns the CAG finished by this
// activity, if any.
func (e *Engine) Handle(a *activity.Activity) *cag.Graph {
	return e.HandleOrds(a, e.Intern(a))
}

// HandleOrds is Handle for a record this engine interned as o since its
// last Reset — the ranker's candidates arrive this way, hashed once.
func (e *Engine) HandleOrds(a *activity.Activity, o Ords) *cag.Graph {
	switch a.Type {
	case activity.Begin:
		e.handleBegin(a, o)
	case activity.End:
		return e.handleEnd(a, o)
	case activity.Send:
		e.handleSend(a, o)
	case activity.Receive:
		e.handleReceive(a, o)
	case activity.MaxType:
		// Sentinel never appears in a trace; ignore defensively.
	}
	return nil
}

// handleBegin: lines 3–4 — create a CAG with the BEGIN as root. A request
// larger than one TCP segment arrives as several frontier RECEIVEs, all
// classified BEGIN; the trailing segments merge into the root the same way
// Fig. 4 merges SEND segments.
func (e *Engine) handleBegin(a *activity.Activity, o Ords) {
	if parent := e.cmap[o.Ctx]; parent.vertex != nil && !parent.graph.Finished() &&
		parent.vertex.Type == activity.Begin && parent.vertex.Chan == a.Chan &&
		parent.graph.Len() == 1 {
		parent.vertex.Size += a.Size
		parent.vertex.Records = append(parent.vertex.Records, a)
		e.stats.MergedBegins++
		return
	}
	v := e.newVertex(a)
	g := cag.New(v)
	e.cmap[o.Ctx] = ctxEntry{vertex: v, graph: g}
	e.stats.Begins++
	e.addResident(1)
}

// handleEnd: lines 5–11 — attach via the context relation and output.
func (e *Engine) handleEnd(a *activity.Activity, o Ords) *cag.Graph {
	parent := e.cmap[o.Ctx]
	if parent.vertex == nil {
		e.stats.DiscardedEnds++
		return nil
	}
	if parent.vertex.Type == activity.End && parent.vertex.Chan == a.Chan {
		// Trailing segment of a multi-segment response: merge into the END
		// vertex even though the graph is already finished — only the
		// vertex's records and byte count change, not the structure.
		parent.vertex.Size += a.Size
		parent.vertex.Records = append(parent.vertex.Records, a)
		e.stats.MergedEnds++
		return nil
	}
	if parent.graph.Finished() {
		e.stats.DiscardedEnds++
		return nil
	}
	v := e.newVertex(a)
	if err := parent.graph.AddVertex(v, cag.ContextEdge, parent.vertex); err != nil {
		e.stats.DiscardedEnds++
		return nil
	}
	if err := parent.graph.Finish(); err != nil {
		e.stats.DiscardedEnds++
		return nil
	}
	e.cmap[o.Ctx] = ctxEntry{vertex: v, graph: parent.graph}
	e.stats.Finished++
	g := parent.graph
	e.addResident(1)
	e.resident -= g.Len()
	e.outputs = append(e.outputs, g)
	return g
}

// handleSend: lines 12–21 — either merge into the previous SEND segment of
// the same message (same context, same channel) or materialise a new SEND
// vertex hanging off the context parent.
func (e *Engine) handleSend(a *activity.Activity, o Ords) {
	parent := e.cmap[o.Ctx]
	if parent.vertex == nil || parent.graph.Finished() {
		// No context parent: nothing caused this send within a traced
		// request — noise that slipped past the ranker's filters.
		e.stats.DiscardedSends++
		return
	}
	p := &e.mmap[o.Chan]
	if parent.vertex.Type == activity.Send && parent.vertex.Chan == a.Chan {
		// Line 15–16: consecutive SEND segments of one message — merge.
		parent.vertex.Size += a.Size
		parent.vertex.Records = append(parent.vertex.Records, a)
		if p.vertex == parent.vertex {
			p.remaining += a.Size
		}
		e.stats.MergedSends++
		return
	}
	v := e.newVertex(a)
	if err := parent.graph.AddVertex(v, cag.ContextEdge, parent.vertex); err != nil {
		e.stats.DiscardedSends++
		return
	}
	e.cmap[o.Ctx] = ctxEntry{vertex: v, graph: parent.graph}
	if p.remaining > 0 {
		// A fresh message started on a channel whose previous message was
		// never fully received: only possible with activity loss.
		e.stats.ReplacedSends++
	}
	*p = pendingSend{vertex: v, graph: parent.graph, remaining: a.Size}
	e.stats.Sends++
	e.addResident(1)
}

// handleReceive: lines 22–34 — count down the pending SEND's bytes; when
// they reach zero materialise the RECEIVE with its message edge, and add
// the context edge only if both parents sit in the same CAG (thread-reuse
// check).
func (e *Engine) handleReceive(a *activity.Activity, o Ords) {
	p := &e.mmap[o.Chan]
	if p.remaining <= 0 {
		e.stats.DiscardedReceives++
		return
	}
	remaining := p.remaining - a.Size
	if remaining > 0 {
		p.remaining = remaining
		p.partial = append(p.partial, a)
		e.stats.PartialReceives++
		return
	}
	if remaining < 0 {
		e.stats.OverrunReceives++
	}
	// Message fully received: the RECEIVE vertex is represented by the
	// completing segment (data available to the application now). The
	// partial slice belongs to this one pending message, cleared below,
	// so the vertex takes it over.
	v := e.newVertex(a)
	v.Size = p.vertex.Size
	if len(p.partial) > 0 {
		v.Records = append(p.partial, a)
	}
	if err := p.graph.AddVertex(v, cag.MessageEdge, p.vertex); err != nil {
		// The entry stays pending and may share partial's backing array
		// with v.Records; harmless, since v is dropped here.
		e.stats.DiscardedReceives++
		return
	}
	if parentCtx := e.cmap[o.Ctx]; parentCtx.vertex != nil {
		// Lines 29–32: same-CAG check defeats thread-pool reuse.
		if p.graph.Contains(parentCtx.vertex) {
			if err := p.graph.AddEdge(cag.ContextEdge, parentCtx.vertex, v); err != nil {
				e.stats.DiscardedReceives++
			}
		} else {
			e.stats.ThreadReuseBreaks++
		}
	}
	e.cmap[o.Ctx] = ctxEntry{vertex: v, graph: p.graph}
	*p = pendingSend{}
	e.stats.Receives++
	e.addResident(1)
}

// String implements fmt.Stringer.
func (e *Engine) String() string {
	return fmt.Sprintf("engine{mmap=%d cmap=%d unfinished=%d finished=%d}",
		len(e.mmap), len(e.cmap), e.stats.Begins-e.stats.Finished, e.stats.Finished)
}
