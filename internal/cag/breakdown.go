package cag

import (
	"fmt"
	"sort"
	"time"
)

// CriticalPath returns the chain of vertices from the BEGIN root to the END
// vertex along which the request's latency accrues. Walking backwards from
// END, a RECEIVE is attributed to its *message* parent (the cross-node hop
// that delivered the data), and every other vertex to its context parent.
// For the multi-tier request/reply patterns the paper studies this chain
// telescopes exactly: summing its segment latencies reproduces
// t(END) − t(BEGIN).
//
// For an unfinished graph the walk starts at the last inserted vertex.
func CriticalPath(g *Graph) []*Vertex {
	rev := appendCriticalPathRev(nil, g)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// appendCriticalPathRev appends g's critical path to dst END-first, the
// order the walk discovers it.
func appendCriticalPathRev(dst []*Vertex, g *Graph) []*Vertex {
	if g.Len() == 0 {
		return dst
	}
	cur := g.end
	if cur == nil {
		cur = g.vertices[len(g.vertices)-1]
	}
	for ; cur != nil; cur = cur.PathParent() {
		dst = append(dst, cur)
	}
	return dst
}

// Segment is one hop of the critical path with its latency attribution
// category. Categories follow the paper's naming: a context segment inside
// program P is "P2P" (e.g. httpd2httpd = time P spent computing between two
// of its own activities); a message segment from program P to program Q is
// "P2Q" (e.g. httpd2java = transmission plus receive-side queueing of the
// hop). Cross-node segments include clock skew, which §3.2 acknowledges is
// not remedied.
type Segment struct {
	Category string
	Kind     EdgeKind
	From     *Vertex
	To       *Vertex
	Latency  time.Duration
}

// CategoryName builds the paper's component label for a hop.
func CategoryName(from, to *Vertex) string {
	return from.Ctx.Program + "2" + to.Ctx.Program
}

// Breakdown decomposes the critical path into consecutive segments.
func Breakdown(g *Graph) []Segment {
	path := CriticalPath(g)
	if len(path) < 2 {
		return nil
	}
	segs := make([]Segment, 0, len(path)-1)
	for i := 1; i < len(path); i++ {
		from, to := path[i-1], path[i]
		kind := ContextEdge
		if to.msgParent == from {
			kind = MessageEdge
		}
		segs = append(segs, Segment{
			Category: CategoryName(from, to),
			Kind:     kind,
			From:     from,
			To:       to,
			Latency:  to.Timestamp - from.Timestamp,
		})
	}
	return segs
}

// ComponentLatencies sums critical-path segment latencies per category for
// one graph. Negative cross-node segments (possible under clock skew) are
// included as-is: the per-category sums still telescope to the accurate
// end-to-end latency.
func ComponentLatencies(g *Graph) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range Breakdown(g) {
		out[s.Category] += s.Latency
	}
	return out
}

// AveragePath aggregates n isomorphic CAGs into an average causal path
// (§3.2): per-category mean latencies plus the mean end-to-end latency.
type AveragePath struct {
	Signature string
	Name      string
	Count     int
	// Mean end-to-end latency across the aggregated CAGs.
	MeanLatency time.Duration
	// Mean per-component latency, keyed by category name.
	Components map[string]time.Duration
}

// Aggregate computes the average causal path of a set of isomorphic CAGs.
// It returns an error if the set is empty or the members are not mutually
// isomorphic (aggregating across patterns would average unlike vertices).
func Aggregate(graphs []*Graph) (*AveragePath, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("cag: aggregate of zero graphs")
	}
	sig := Signature(graphs[0])
	sums := make(map[string]time.Duration)
	var total time.Duration
	for _, g := range graphs {
		if Signature(g) != sig {
			return nil, fmt.Errorf("cag: aggregate over non-isomorphic graphs")
		}
		for cat, d := range ComponentLatencies(g) {
			sums[cat] += d
		}
		total += g.Latency()
	}
	n := time.Duration(len(graphs))
	avg := &AveragePath{
		Signature:   sig,
		Name:        PatternName(graphs[0]),
		Count:       len(graphs),
		MeanLatency: total / n,
		Components:  make(map[string]time.Duration, len(sums)),
	}
	for cat, d := range sums {
		avg.Components[cat] = d / n
	}
	return avg, nil
}

// Percentages converts the average path's component latencies into latency
// percentages of the mean end-to-end latency — the quantity plotted in
// Fig. 15 and Fig. 17. Categories are returned in deterministic
// (alphabetical) order.
func (a *AveragePath) Percentages() ([]string, []float64) {
	cats := make([]string, 0, len(a.Components))
	for c := range a.Components {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	vals := make([]float64, len(cats))
	if a.MeanLatency <= 0 {
		return cats, vals
	}
	for i, c := range cats {
		vals[i] = 100 * float64(a.Components[c]) / float64(a.MeanLatency)
	}
	return cats, vals
}

// Percent returns one category's latency percentage.
func (a *AveragePath) Percent(category string) float64 {
	if a.MeanLatency <= 0 {
		return 0
	}
	return 100 * float64(a.Components[category]) / float64(a.MeanLatency)
}
