package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"time"

	"repro/internal/cag"
	"repro/internal/groundtruth"
)

// verifier judges an emitted graph stream: an FNV-1a hash of the graphs
// in emission order (compared with the set-up reference) and the
// groundtruth verdict of every graph, aggregated by the rules of
// Truth.Evaluate. It is fed one graph at a time so that a pass may check
// either after the timed region (retained graphs) or inline.
//
// The hash covers exactly what cag.Dump prints — per vertex, in insertion
// order: type, timestamp, context, both parent links, size — but not
// through fmt: hashing the Dump text of one pass's graphs takes longer
// than the pass.
type verifier struct {
	truth   *groundtruth.Truth
	h       hash.Hash64
	buf     []byte
	matched map[int64]bool
	graphs  int
	correct int
	bad     int // mixed + deformed + duplicate graphs
}

func newVerifier(truth *groundtruth.Truth) *verifier {
	return &verifier{truth: truth, h: fnv.New64a(), matched: make(map[int64]bool, truth.Requests())}
}

func (v *verifier) check(g *cag.Graph) {
	v.graphs++
	for i := 0; i < g.Len(); i++ {
		vx := g.Vertex(i)
		b := append(v.buf[:0], byte(vx.Type))
		b = binary.AppendVarint(b, int64(vx.Timestamp))
		b = append(b, vx.Ctx.Host...)
		b = append(b, '/')
		b = append(b, vx.Ctx.Program...)
		b = binary.AppendVarint(b, int64(vx.Ctx.PID))
		b = binary.AppendVarint(b, int64(vx.Ctx.TID))
		for _, parent := range []*cag.Vertex{vx.CtxParent(), vx.MsgParent()} {
			if parent == nil {
				b = binary.AppendVarint(b, -1)
			} else {
				b = binary.AppendVarint(b, int64(parent.Index()))
			}
		}
		b = binary.AppendVarint(b, vx.Size)
		v.h.Write(b)
		v.buf = b
	}
	v.h.Write([]byte{0xff}) // graph boundary
	switch verdict, req := v.truth.Judge(g); verdict {
	case groundtruth.Correct:
		if v.matched[req] {
			v.bad++
		} else {
			v.matched[req] = true
			v.correct++
		}
	case groundtruth.Mixed, groundtruth.Deformed:
		v.bad++
	}
}

// failed counts failed operations, where an operation is a logged
// request: those without a Correct graph, plus every wrong graph.
func (v *verifier) failed() int { return v.truth.Requests() - v.correct + v.bad }

// verifySink is the benchmark's own sink, last in every chain. It stamps
// each graph's arrival (the emit-lag sample) and keeps its END record ID,
// the key into the set-up's decidable index. Untraced passes retain the
// graphs and judge them after the timed region; the traced pass judges
// inline and retains nothing, so the heap it measures at end of input is
// the program's own.
type verifySink struct {
	t0     time.Time
	v      *verifier
	retain bool
	graphs []*cag.Graph
	endID  []int64
	at     []int64 // ns since t0
}

func newVerifySink(truth *groundtruth.Truth, retain bool) *verifySink {
	n := truth.Requests()
	s := &verifySink{v: newVerifier(truth), retain: retain, endID: make([]int64, 0, n), at: make([]int64, 0, n)}
	if retain {
		s.graphs = make([]*cag.Graph, 0, n)
	}
	return s
}

// ConsumeGraph implements core.GraphSink.
func (s *verifySink) ConsumeGraph(g *cag.Graph) {
	s.at = append(s.at, int64(time.Since(s.t0)))
	s.endID = append(s.endID, endID(g))
	if s.retain {
		s.graphs = append(s.graphs, g)
	} else {
		s.v.check(g)
	}
}

// endID names a finished graph across passes: the ID of the first raw
// record of its END vertex.
func endID(g *cag.Graph) int64 { return g.End().Records[0].ID }

// finish judges the retained graphs; call it after the timed region.
func (s *verifySink) finish() {
	for _, g := range s.graphs {
		s.v.check(g)
	}
	s.graphs = nil
}
