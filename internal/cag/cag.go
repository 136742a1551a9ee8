// Package cag implements the Component Activity Graph abstraction of §3.2:
// a directed acyclic graph whose vertices are activities and whose edges are
// the two happened-before relations the paper defines — the adjacent context
// relation (x ⟶c y: x happened right before y in the same execution entity)
// and the message relation (x ⟶m y: the SEND of a message happened right
// before its RECEIVE).
//
// The package also provides what the paper builds on top of CAGs: causal
// path patterns (isomorphism classes, §3.2), aggregation of isomorphic CAGs
// into average causal paths, and the component latency breakdown used for
// performance debugging (§5.4).
package cag

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/activity"
)

// EdgeKind distinguishes the two relations of §3.2.
type EdgeKind uint8

// Edge kinds.
const (
	ContextEdge EdgeKind = iota + 1 // adjacent context relation, x ⟶c y
	MessageEdge                     // message relation, x ⟶m y
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case ContextEdge:
		return "ctx"
	case MessageEdge:
		return "msg"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Vertex is one activity in a CAG. A vertex may aggregate several raw
// TCP_TRACE records when the engine merges consecutive segments or counts
// down multi-segment RECEIVEs (§4.2, Fig. 4); Records holds all of them in
// log order.
//
// The vertex embeds one of those records as its representative, so Type,
// Timestamp, Ctx and Chan are that record's fields: a write through the
// vertex (as examples/livemonitor does to Timestamp) changes the record.
// The engine's representative is the first segment of a BEGIN, SEND or
// END and the completing segment of a RECEIVE; baseline.Nesting's is a
// coalesced group's last record. Size is the vertex's own merged byte
// count and shadows the record's. Build vertices with NewVertex, or Init
// one allocated in bulk.
type Vertex struct {
	*activity.Activity
	Size int64 // total message bytes after merging

	// Records are the underlying raw activities, in the order the engine
	// consumed them.
	Records []*activity.Activity

	ctxParent *Vertex
	msgParent *Vertex

	index int // position within the owning graph's vertex slice

	// rec0 is inline backing storage for the common case — nearly every
	// vertex holds exactly one raw record, so NewVertex avoids a
	// per-vertex slice allocation. Appends beyond it reallocate normally.
	rec0 [1]*activity.Activity
}

// NewVertex returns a vertex represented by a, with Records backed by the
// vertex itself (no separate slice allocation).
func NewVertex(a *activity.Activity) *Vertex {
	v := new(Vertex)
	v.Init(a)
	return v
}

// Init makes v a fresh vertex represented by a, exactly as NewVertex
// builds one, for callers that allocate vertices in bulk. v must not
// belong to a graph.
func (v *Vertex) Init(a *activity.Activity) {
	*v = Vertex{Activity: a, Size: a.Size}
	v.rec0[0] = a
	v.Records = v.rec0[:1]
}

// CtxParent returns the parent via the adjacent context relation, or nil.
func (v *Vertex) CtxParent() *Vertex { return v.ctxParent }

// MsgParent returns the parent via the message relation, or nil.
func (v *Vertex) MsgParent() *Vertex { return v.msgParent }

// PathParent returns the parent the critical path steps to from v: the
// message parent if there is one, else the context parent; nil at the
// root. See CriticalPath.
func (v *Vertex) PathParent() *Vertex {
	if v.msgParent != nil {
		return v.msgParent
	}
	return v.ctxParent
}

// Index returns the vertex's insertion position in its graph.
func (v *Vertex) Index() int { return v.index }

// Parents returns the number of parents (0, 1 or 2).
func (v *Vertex) Parents() int {
	n := 0
	if v.ctxParent != nil {
		n++
	}
	if v.msgParent != nil {
		n++
	}
	return n
}

// String implements fmt.Stringer.
func (v *Vertex) String() string {
	return fmt.Sprintf("%s@%v %s", v.Type, v.Timestamp, v.Ctx)
}

// Graph is one component activity graph: the causal path of one request.
type Graph struct {
	vertices []*Vertex
	finished bool
	end      *Vertex

	// forcedSeal / lateLink record the streaming engine's provenance for
	// this graph: whether its component was sealed by an activity-time
	// horizon rather than host closure, and whether a straggler
	// late-linked off it (either way the graph may be a split fragment
	// of its request). Set once by the emitter; exported sinks surface
	// them (the OTLP exporter maps them to span events).
	forcedSeal bool
	lateLink   bool
}

// SetProvenance records the emitting component's seal provenance; see
// Provenance.
func (g *Graph) SetProvenance(forced, late bool) {
	g.forcedSeal = forced
	g.lateLink = late
}

// Provenance reports whether the graph's component was force-sealed by
// a horizon (forced) and whether a late link detached off it (late).
// Both false for close-driven output.
func (g *Graph) Provenance() (forced, late bool) { return g.forcedSeal, g.lateLink }

// Errors reported by graph mutation.
var (
	ErrFinished      = errors.New("cag: graph already finished")
	ErrTooManyParent = errors.New("cag: vertex already has that parent kind")
	ErrNotReceive    = errors.New("cag: only a RECEIVE vertex may have two parents")
	ErrForeignVertex = errors.New("cag: parent vertex belongs to a different graph")
	ErrEmpty         = errors.New("cag: graph has no vertices")
)

// New creates a CAG rooted at the given BEGIN vertex.
func New(root *Vertex) *Graph {
	g := &Graph{}
	root.index = 0
	// Typical request graphs run a dozen-plus vertices; starting at a
	// useful capacity skips the first few append growth steps.
	g.vertices = make([]*Vertex, 1, 8)
	g.vertices[0] = root
	return g
}

// Root returns the first vertex (the BEGIN activity).
func (g *Graph) Root() *Vertex {
	if len(g.vertices) == 0 {
		return nil
	}
	return g.vertices[0]
}

// End returns the END vertex once the graph is finished, else nil.
func (g *Graph) End() *Vertex { return g.end }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.vertices) }

// Vertices returns the vertices in insertion (causal discovery) order.
// The returned slice is a copy.
func (g *Graph) Vertices() []*Vertex {
	out := make([]*Vertex, len(g.vertices))
	copy(out, g.vertices)
	return out
}

// Vertex returns the i-th vertex in insertion order.
func (g *Graph) Vertex(i int) *Vertex { return g.vertices[i] }

// Finished reports whether the END activity has been attached.
func (g *Graph) Finished() bool { return g.finished }

// Contains reports whether v belongs to this graph. The engine's
// thread-reuse check (§4.2 lines 29–32) relies on this.
func (g *Graph) Contains(v *Vertex) bool {
	return v != nil && v.index >= 0 && v.index < len(g.vertices) && g.vertices[v.index] == v
}

// AddVertex appends v with an edge of the given kind from parent, which
// must already belong to this graph. When kind is MessageEdge the new
// vertex's message parent is set; context edges set the context parent.
func (g *Graph) AddVertex(v *Vertex, kind EdgeKind, parent *Vertex) error {
	if g.finished {
		return ErrFinished
	}
	if !g.Contains(parent) {
		return ErrForeignVertex
	}
	v.index = len(g.vertices)
	g.vertices = append(g.vertices, v)
	return g.link(kind, parent, v)
}

// AddEdge adds an extra edge between two vertices already in the graph —
// used for the second (context) parent of a RECEIVE that already has a
// message parent.
func (g *Graph) AddEdge(kind EdgeKind, parent, child *Vertex) error {
	if !g.Contains(parent) || !g.Contains(child) {
		return ErrForeignVertex
	}
	if child.Parents() >= 1 && child.Type != activity.Receive {
		return ErrNotReceive
	}
	return g.link(kind, parent, child)
}

func (g *Graph) link(kind EdgeKind, parent, child *Vertex) error {
	switch kind {
	case ContextEdge:
		if child.ctxParent != nil {
			return ErrTooManyParent
		}
		child.ctxParent = parent
	case MessageEdge:
		if child.msgParent != nil {
			return ErrTooManyParent
		}
		child.msgParent = parent
	default:
		return fmt.Errorf("cag: unknown edge kind %v", kind)
	}
	return nil
}

// Finish marks the graph complete. The last added vertex should be the END
// activity; it is remembered for latency computation.
func (g *Graph) Finish() error {
	if g.finished {
		return ErrFinished
	}
	if len(g.vertices) == 0 {
		return ErrEmpty
	}
	g.finished = true
	g.end = g.vertices[len(g.vertices)-1]
	return nil
}

// Latency returns the end-to-end service time t(END) − t(BEGIN). Both
// timestamps come from the same (first-tier) node, so the value is accurate
// regardless of clock skew — the property §3.2 points out for same-node
// intervals.
func (g *Graph) Latency() time.Duration {
	if g.end == nil || len(g.vertices) == 0 {
		return 0
	}
	return g.end.Timestamp - g.vertices[0].Timestamp
}

// Validate checks the structural invariants of §3.2: exactly one root (the
// BEGIN vertex, index 0), every other vertex has at least one parent, no
// vertex has more than two parents, and only RECEIVE vertices have two —
// one context parent and one message parent. Parent indices always precede
// child indices, which also proves acyclicity for insertion-ordered graphs.
func (g *Graph) Validate() error {
	if len(g.vertices) == 0 {
		return ErrEmpty
	}
	for i, v := range g.vertices {
		if v.index != i {
			return fmt.Errorf("cag: vertex %d has index %d", i, v.index)
		}
		switch {
		case i == 0:
			if v.Parents() != 0 {
				return fmt.Errorf("cag: root has %d parents", v.Parents())
			}
			if v.Type != activity.Begin {
				return fmt.Errorf("cag: root type is %v, want BEGIN", v.Type)
			}
		default:
			if v.Parents() == 0 {
				return fmt.Errorf("cag: vertex %d (%v) has no parents", i, v)
			}
		}
		if v.Parents() == 2 && v.Type != activity.Receive {
			return fmt.Errorf("cag: vertex %d (%v) has two parents but is not RECEIVE", i, v)
		}
		if v.ctxParent != nil && v.ctxParent.index >= i {
			return fmt.Errorf("cag: vertex %d context parent %d does not precede it", i, v.ctxParent.index)
		}
		if v.msgParent != nil && v.msgParent.index >= i {
			return fmt.Errorf("cag: vertex %d message parent %d does not precede it", i, v.msgParent.index)
		}
		if v.ctxParent != nil && v.ctxParent.Ctx != v.Ctx {
			return fmt.Errorf("cag: context edge %d->%d crosses contexts", v.ctxParent.index, i)
		}
		if v.ctxParent != nil && v.Timestamp < v.ctxParent.Timestamp {
			return fmt.Errorf("cag: context edge %d->%d goes back in local time", v.ctxParent.index, i)
		}
	}
	return nil
}

// RequestIDs returns the distinct ground-truth request IDs present among
// the underlying records (ignoring -1). Used only by accuracy checking.
func (g *Graph) RequestIDs() []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, v := range g.vertices {
		for _, r := range v.Records {
			if r.ReqID < 0 || seen[r.ReqID] {
				continue
			}
			seen[r.ReqID] = true
			out = append(out, r.ReqID)
		}
	}
	return out
}

// RecordIDs returns the IDs of every underlying raw record in the graph.
func (g *Graph) RecordIDs() []int64 {
	var out []int64
	for _, v := range g.vertices {
		for _, r := range v.Records {
			out = append(out, r.ID)
		}
	}
	return out
}
