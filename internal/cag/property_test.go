package cag

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/activity"
)

// randomChain builds a random-length valid request/reply chain across a
// random number of tiers and returns it. Constructed graphs must always
// validate, telescope, and classify consistently.
func randomChain(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	tiers := 1 + rng.Intn(4)
	ctxs := make([]activity.Context, tiers)
	for i := range ctxs {
		ctxs[i] = activity.Context{
			Host:    string(rune('a' + i)),
			Program: "p" + string(rune('0'+i)),
			PID:     int32(1 + rng.Intn(5)),
			TID:     int32(1 + rng.Intn(50)),
		}
	}
	chans := make([]activity.Channel, tiers)
	for i := range chans {
		chans[i] = activity.Channel{
			Src: activity.EP(string(rune('a'+i)), 1000+rng.Intn(50000)),
			Dst: activity.EP(string(rune('a'+i))+"x", 80),
		}
	}
	ts := time.Duration(rng.Intn(1000)) * time.Millisecond
	next := func() time.Duration {
		ts += time.Duration(1+rng.Intn(5000)) * time.Microsecond
		return ts
	}

	g := New(vx(activity.Activity{Type: activity.Begin, Timestamp: next(), Ctx: ctxs[0], Chan: chans[0]}))
	last := make([]*Vertex, tiers) // last vertex per tier context
	last[0] = g.Root()

	// Descend.
	for i := 0; i+1 < tiers; i++ {
		s := vx(activity.Activity{Type: activity.Send, Timestamp: next(), Ctx: ctxs[i], Chan: chans[i+1]})
		if err := g.AddVertex(s, ContextEdge, last[i]); err != nil {
			panic(err)
		}
		last[i] = s
		r := vx(activity.Activity{Type: activity.Receive, Timestamp: next(), Ctx: ctxs[i+1], Chan: chans[i+1]})
		if err := g.AddVertex(r, MessageEdge, s); err != nil {
			panic(err)
		}
		last[i+1] = r
	}
	// Ascend.
	for i := tiers - 1; i > 0; i-- {
		s := vx(activity.Activity{Type: activity.Send, Timestamp: next(), Ctx: ctxs[i], Chan: chans[i].Reverse()})
		if err := g.AddVertex(s, ContextEdge, last[i]); err != nil {
			panic(err)
		}
		r := vx(activity.Activity{Type: activity.Receive, Timestamp: next(), Ctx: ctxs[i-1], Chan: chans[i].Reverse()})
		if err := g.AddVertex(r, MessageEdge, s); err != nil {
			panic(err)
		}
		if err := g.AddEdge(ContextEdge, last[i-1], r); err != nil {
			panic(err)
		}
		last[i-1] = r
	}
	end := vx(activity.Activity{Type: activity.End, Timestamp: next(), Ctx: ctxs[0], Chan: chans[0].Reverse()})
	if err := g.AddVertex(end, ContextEdge, last[0]); err != nil {
		panic(err)
	}
	if err := g.Finish(); err != nil {
		panic(err)
	}
	return g
}

// Property: every constructed chain validates and its breakdown telescopes
// exactly to the end-to-end latency.
func TestPropertyChainValidatesAndTelescopes(t *testing.T) {
	f := func(seed int64) bool {
		g := randomChain(seed)
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var sum time.Duration
		for _, seg := range Breakdown(g) {
			sum += seg.Latency
		}
		return sum == g.Latency()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: signatures are invariant under PID/TID/port renaming and
// timestamp shifts (the definition of a causal path pattern), and two
// different seeds with the same tier count are isomorphic.
func TestPropertySignatureInvariance(t *testing.T) {
	f := func(seed int64) bool {
		g1 := randomChain(seed)
		g2 := randomChain(seed + 1_000_000) // different ids/timestamps
		// Only compare when the tier counts match (same chain shape).
		if countHosts(g1) != countHosts(g2) {
			return true
		}
		return Signature(g1) == Signature(g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func countHosts(g *Graph) int {
	seen := map[string]bool{}
	for _, v := range g.Vertices() {
		seen[v.Ctx.Host] = true
	}
	return len(seen)
}

// Property: the critical path of a chain visits every vertex exactly once.
func TestPropertyCriticalPathCoversChain(t *testing.T) {
	f := func(seed int64) bool {
		g := randomChain(seed)
		path := CriticalPath(g)
		if len(path) != g.Len() {
			return false
		}
		seen := map[*Vertex]bool{}
		for _, v := range path {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return path[0] == g.Root() && path[len(path)-1] == g.End()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
