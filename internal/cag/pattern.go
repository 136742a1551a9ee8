package cag

import (
	"sort"
	"strconv"
	"unicode/utf8"
)

// Signature returns a canonical string identifying the graph's causal path
// pattern. Per §3.2, "each causal path pattern is composed of a series of
// isomorphic CAGs, where similar vertices represent activities of the same
// type with the same context information". Context information is compared
// at (host, program) granularity: PIDs and TIDs differ between requests of
// the same pattern (different pool entities serve them), but the tier and
// component do not.
//
// The signature encodes, per vertex in insertion order: the activity type,
// host, program, and the indices and kinds of its parents. Because the
// engine discovers vertices in causal order, two CAGs of the same request
// shape produce identical signatures, and any structural difference (extra
// DB query, different tier, missing edge) changes the signature.
func Signature(g *Graph) string {
	// Room for a typical request on the stack, so the string is the one
	// allocation; a longer signature grows onto the heap.
	var buf [512]byte
	return string(AppendSignature(buf[:0], g))
}

// AppendSignature appends g's Signature to dst.
func AppendSignature(dst []byte, g *Graph) []byte {
	for i, v := range g.vertices {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = append(dst, v.Type.String()...)
		dst = append(dst, ':')
		dst = append(dst, v.Ctx.Host...)
		dst = append(dst, '/')
		dst = append(dst, v.Ctx.Program...)
		if v.ctxParent != nil {
			dst = append(dst, ":c"...)
			dst = strconv.AppendInt(dst, int64(v.ctxParent.index), 10)
		}
		if v.msgParent != nil {
			dst = append(dst, ":m"...)
			dst = strconv.AppendInt(dst, int64(v.msgParent.index), 10)
		}
	}
	return dst
}

// PatternName produces a short human-readable label for a pattern, listing
// the programs visited along the critical path, e.g.
// "httpd>java>mysqld>java>mysqld>java>httpd". Isomorphic graphs share a
// name, but the name is lossier than the signature.
func PatternName(g *Graph) string {
	var buf [128]byte
	return string(AppendPatternName(buf[:0], g))
}

// AppendPatternName appends g's PatternName to dst.
func AppendPatternName(dst []byte, g *Graph) []byte {
	var buf [32]*Vertex
	rev := appendCriticalPathRev(buf[:0], g)
	if len(rev) == 0 {
		return append(dst, "(empty)"...)
	}
	last := len(rev) - 1
	dst = append(dst, rev[last].Ctx.Program...)
	for i := last - 1; i >= 0; i-- {
		if p := rev[i].Ctx.Program; p != rev[i+1].Ctx.Program {
			dst = append(dst, '>')
			dst = append(dst, p...)
		}
	}
	return dst
}

// Pattern is one isomorphism class of CAGs with its members.
type Pattern struct {
	Signature string
	Name      string
	Graphs    []*Graph
}

// Count returns the number of member CAGs.
func (p *Pattern) Count() int { return len(p.Graphs) }

// Classify groups CAGs into causal path patterns by signature. Patterns are
// returned most-frequent first (ties broken by signature for determinism).
func Classify(graphs []*Graph) []*Pattern {
	bySig := make(map[string]*Pattern)
	for _, g := range graphs {
		sig := Signature(g)
		p := bySig[sig]
		if p == nil {
			p = &Pattern{Signature: sig, Name: PatternName(g)}
			bySig[sig] = p
		}
		p.Graphs = append(p.Graphs, g)
	}
	out := make([]*Pattern, 0, len(bySig))
	for _, p := range bySig {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Graphs) != len(out[j].Graphs) {
			return len(out[i].Graphs) > len(out[j].Graphs)
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// Isomorphic reports whether two CAGs belong to the same causal path
// pattern.
func Isomorphic(a, b *Graph) bool { return Signature(a) == Signature(b) }

// Dump renders the graph as an indented textual tree for debugging and the
// CLI. Vertices appear in insertion order with their parent links.
func Dump(g *Graph) string {
	return string(AppendDump(nil, g))
}

// AppendDump appends g's Dump to dst.
func AppendDump(dst []byte, g *Graph) []byte {
	for i, v := range g.vertices {
		switch {
		case i < 10:
			dst = append(dst, "  "...)
		case i < 100:
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, ' ')
		dst = appendPadded(dst, v.Type.String(), 7)
		dst = append(dst, " t="...)
		dst = appendPadded(dst, v.Timestamp.String(), 12)
		dst = append(dst, ' ')
		dst = v.Ctx.AppendTo(dst)
		if v.ctxParent != nil {
			dst = append(dst, " c<-"...)
			dst = strconv.AppendInt(dst, int64(v.ctxParent.index), 10)
		}
		if v.msgParent != nil {
			dst = append(dst, " m<-"...)
			dst = strconv.AppendInt(dst, int64(v.msgParent.index), 10)
		}
		if v.Size > 0 {
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, v.Size, 10)
			dst = append(dst, 'B')
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendPadded appends s left-justified in a field of width runes, as
// fmt's %-*s does.
func appendPadded(dst []byte, s string, width int) []byte {
	dst = append(dst, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		dst = append(dst, ' ')
	}
	return dst
}
