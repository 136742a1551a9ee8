package analysis

import (
	"sort"
	"time"

	"repro/internal/cag"
)

// The paper computes cross-node interaction latencies directly from local
// timestamps and notes (§3.2) that they are inaccurate because clock skew
// is not remedied. This file implements the natural remedy as an extension:
// estimate per-host clock offsets from the message edges themselves and
// correct the interaction latencies.
//
// The estimator uses minimum-delay filtering with a symmetry assumption:
// for hosts A and B, the smallest observed (t_recv − t_send) in each
// direction approaches (transit + offB − offA) and (transit + offA − offB)
// respectively, so half their difference estimates offB − offA. This is the
// classic NTP-style pairwise estimate applied to passive traces.
//
// Bias: RECEIVE timestamps are read times (when the application drains the
// socket), not wire-arrival times, so a direction whose receiver reads late
// even in the best case — e.g. requests into a tier that must first assign
// a worker thread to a fresh connection — inflates that direction's minimum
// and shifts the estimate by half the minimal read lag. With millisecond-
// scale connection setup this leaves a few milliseconds of residual error
// against hundreds of milliseconds of skew removed.

// SkewEstimate holds per-host clock offsets relative to a reference host.
type SkewEstimate struct {
	Reference string
	// Offsets maps host -> estimated clock offset relative to Reference
	// (positive = that host's clock runs ahead).
	Offsets map[string]time.Duration
}

// EstimateOffsets estimates host clock offsets from the message edges of
// the given CAGs, relative to the reference host (usually the first tier,
// whose END−BEGIN latency is already skew-free). Hosts unreachable through
// message edges are absent from the result.
func EstimateOffsets(graphs []*cag.Graph, reference string) *SkewEstimate {
	type pair struct{ a, b string }
	minDelay := make(map[pair]time.Duration)
	hosts := map[string]bool{reference: true}

	for _, g := range graphs {
		for _, v := range g.Vertices() {
			mp := v.MsgParent()
			if mp == nil {
				continue
			}
			from, to := mp.Ctx.Host, v.Ctx.Host
			if from == to {
				continue
			}
			hosts[from], hosts[to] = true, true
			d := v.Timestamp - mp.Timestamp
			key := pair{from, to}
			if cur, ok := minDelay[key]; !ok || d < cur {
				minDelay[key] = d
			}
		}
	}

	// Pairwise offset estimates where both directions were observed.
	type edge struct {
		to  string
		off time.Duration // clock(to) - clock(from)
	}
	adj := make(map[string][]edge)
	for key, dab := range minDelay {
		dba, ok := minDelay[pair{key.b, key.a}]
		if !ok {
			continue
		}
		// dab = transit + off(b) - off(a); dba = transit + off(a) - off(b).
		off := (dab - dba) / 2
		adj[key.a] = append(adj[key.a], edge{to: key.b, off: off})
		adj[key.b] = append(adj[key.b], edge{to: key.a, off: -off})
	}

	est := &SkewEstimate{Reference: reference, Offsets: map[string]time.Duration{reference: 0}}
	// BFS from the reference, accumulating offsets along pair estimates.
	queue := []string{reference}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		edges := adj[cur]
		sort.Slice(edges, func(i, j int) bool { return edges[i].to < edges[j].to })
		for _, e := range edges {
			if _, seen := est.Offsets[e.to]; seen {
				continue
			}
			est.Offsets[e.to] = est.Offsets[cur] + e.off
			queue = append(queue, e.to)
		}
	}
	return est
}

// Corrected returns a vertex timestamp translated into reference-clock
// time. Hosts without an estimate pass through unchanged.
func (s *SkewEstimate) Corrected(v *cag.Vertex) time.Duration {
	return v.Timestamp - s.Offsets[v.Ctx.Host]
}

// CorrectedComponentLatencies recomputes a CAG's per-category latencies
// using skew-corrected timestamps, so cross-node interaction latencies
// approach true transit times instead of transit ± skew.
func (s *SkewEstimate) CorrectedComponentLatencies(g *cag.Graph) map[string]time.Duration {
	out := make(map[string]time.Duration)
	path := cag.CriticalPath(g)
	for i := 1; i < len(path); i++ {
		from, to := path[i-1], path[i]
		out[cag.CategoryName(from, to)] += s.Corrected(to) - s.Corrected(from)
	}
	return out
}

// DominantPatternCorrected is DominantPattern with skew-corrected component
// latencies: the right input for Detector comparisons when node clocks are
// not synchronised (raw cross-node shares can be hugely negative/positive
// and their run-to-run jitter swamps genuine shifts).
func DominantPatternCorrected(graphs []*cag.Graph, minVertices int, est *SkewEstimate) (*PatternReport, error) {
	rep, err := DominantPattern(graphs, minVertices)
	if err != nil {
		return nil, err
	}
	sums := make(map[string]time.Duration)
	n := 0
	for _, g := range graphs {
		if cag.Signature(g) != rep.Signature {
			continue
		}
		for cat, d := range est.CorrectedComponentLatencies(g) {
			sums[cat] += d
		}
		n++
	}
	if n == 0 {
		return rep, nil
	}
	out := &PatternReport{
		Name: rep.Name, Signature: rep.Signature, Count: n, MeanLatency: rep.MeanLatency,
	}
	cats := make([]string, 0, len(sums))
	for c := range sums {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool {
		oi, oj := categoryRank(cats[i]), categoryRank(cats[j])
		if oi != oj {
			return oi < oj
		}
		return cats[i] < cats[j]
	})
	for _, c := range cats {
		mean := sums[c] / time.Duration(n)
		share := ComponentShare{Category: c, Mean: mean}
		if out.MeanLatency > 0 {
			share.Percent = 100 * float64(mean) / float64(out.MeanLatency)
		}
		out.Shares = append(out.Shares, share)
	}
	return out, nil
}
