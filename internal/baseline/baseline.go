// Package baseline implements two black-box correlators that stand in for
// the approaches the paper positions itself against (§1, §6.1), so the
// precision gap can be measured instead of argued:
//
//   - Naive: assumes synchronised clocks — it feeds activities to the
//     Fig. 3 engine in merged global-timestamp order, with none of the
//     ranker's Rule 1/Rule 2 ordering, swaps, or noise handling. Clock
//     skew and SMP log reordering directly corrupt its matching.
//   - Nesting: a WAP5/Project5-style probabilistic correlator. It pairs
//     each RECEIVE with the oldest unmatched SEND on the channel (no
//     byte-count matching) and attributes causality inside a context to
//     the most recent prior activity within a timeout (no same-CAG
//     thread-reuse check). Under concurrency, segmentation and thread
//     reuse it mixes requests — the imprecision the paper's §1 refers to.
//
// Both produce cag.Graphs, so groundtruth.Evaluate scores them with the
// same path-accuracy metric as PreciseTracer.
package baseline

import (
	"sort"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
)

// Result is a baseline correlation outcome.
type Result struct {
	Graphs          []*cag.Graph
	CorrelationTime time.Duration
	// Dropped counts activities the correlator could not place.
	Dropped int
}

// sortedByTimestamp returns the trace in global timestamp order (stable).
func sortedByTimestamp(trace []*activity.Activity) []*activity.Activity {
	out := make([]*activity.Activity, len(trace))
	copy(out, trace)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

// Naive correlates by feeding the engine in merged timestamp order,
// trusting cross-node clocks.
func Naive(trace []*activity.Activity) *Result {
	start := time.Now()
	eng := engine.New()
	for _, a := range sortedByTimestamp(trace) {
		eng.Handle(a)
	}
	st := eng.Stats()
	return &Result{
		Graphs:          eng.Outputs(),
		CorrelationTime: time.Since(start),
		Dropped:         int(st.DiscardedSends + st.DiscardedReceives + st.DiscardedEnds),
	}
}

// NestingConfig parametrises the probabilistic correlator.
type NestingConfig struct {
	// ContextGap bounds how stale a context's last activity may be and
	// still be considered the cause of the next one (default 500ms).
	ContextGap time.Duration
	// CoalesceGap is the time-proximity heuristic for grouping TCP
	// segments into messages: consecutive same-channel same-type records
	// closer than this are treated as one message (default 1ms). This is a
	// guess where PreciseTracer uses exact byte counts — the heuristic
	// breaks when distinct messages arrive back-to-back or when a message's
	// segments straddle the gap.
	CoalesceGap time.Duration
}

// coalesce groups consecutive same-(channel, context, type) records within
// the gap into single logical activities, summing sizes. Each group is a
// vertex represented by its last record: the message completes at its last
// segment. The input must be in global timestamp order.
func coalesce(sorted []*activity.Activity, gap time.Duration) []*cag.Vertex {
	type key struct {
		ch  activity.Channel
		ctx activity.Context
		typ activity.Type
	}
	var out []*cag.Vertex
	last := make(map[key]*cag.Vertex)
	for _, a := range sorted {
		k := key{a.Chan, a.Ctx, a.Type}
		if prev, ok := last[k]; ok && a.Timestamp-prev.Timestamp <= gap {
			prev.Activity = a
			prev.Size += a.Size
			prev.Records = append(prev.Records, a)
			continue
		}
		v := cag.NewVertex(a)
		out = append(out, v)
		last[k] = v
	}
	return out
}

type nestingPath struct {
	graph *cag.Graph
	last  *cag.Vertex // last vertex per this path in any context
}

// Nesting runs the probabilistic correlator.
func Nesting(trace []*activity.Activity, cfg NestingConfig) *Result {
	if cfg.ContextGap <= 0 {
		cfg.ContextGap = 500 * time.Millisecond
	}
	if cfg.CoalesceGap <= 0 {
		cfg.CoalesceGap = time.Millisecond
	}
	start := time.Now()

	type ctxState struct {
		path *nestingPath
		last *cag.Vertex
	}
	type pendingSend struct {
		vertex *cag.Vertex
		path   *nestingPath
	}
	ctxs := make(map[activity.Context]*ctxState)
	sends := make(map[activity.Channel][]pendingSend)

	res := &Result{}
	for _, v := range coalesce(sortedByTimestamp(trace), cfg.CoalesceGap) {
		switch v.Type {
		case activity.Begin:
			p := &nestingPath{graph: cag.New(v), last: v}
			ctxs[v.Ctx] = &ctxState{path: p, last: v}

		case activity.Send:
			st := ctxs[v.Ctx]
			if st == nil || st.path == nil || st.path.graph.Finished() ||
				v.Timestamp-st.last.Timestamp > cfg.ContextGap {
				res.Dropped++
				continue
			}
			if err := st.path.graph.AddVertex(v, cag.ContextEdge, st.last); err != nil {
				res.Dropped++
				continue
			}
			st.last, st.path.last = v, v
			sends[v.Chan] = append(sends[v.Chan], pendingSend{vertex: v, path: st.path})

		case activity.Receive:
			q := sends[v.Chan]
			if len(q) == 0 {
				res.Dropped++
				continue
			}
			// Oldest unmatched SEND on the channel — FIFO pairing without
			// byte counts; the time-gap coalescing above is a guess that
			// mis-pairs when messages arrive back-to-back.
			ps := q[0]
			sends[v.Chan] = q[1:]
			if ps.path.graph.Finished() {
				res.Dropped++
				continue
			}
			if err := ps.path.graph.AddVertex(v, cag.MessageEdge, ps.vertex); err != nil {
				res.Dropped++
				continue
			}
			// Probabilistic context attribution: the receiving context now
			// works for this path — no same-CAG check.
			ctxs[v.Ctx] = &ctxState{path: ps.path, last: v}
			ps.path.last = v

		case activity.End:
			st := ctxs[v.Ctx]
			if st == nil || st.path == nil || st.path.graph.Finished() {
				res.Dropped++
				continue
			}
			if err := st.path.graph.AddVertex(v, cag.ContextEdge, st.last); err != nil {
				res.Dropped++
				continue
			}
			if err := st.path.graph.Finish(); err != nil {
				res.Dropped++
				continue
			}
			res.Graphs = append(res.Graphs, st.path.graph)
			st.path, st.last = nil, nil

		case activity.MaxType:
			res.Dropped++
		}
	}
	res.CorrelationTime = time.Since(start)
	return res
}
