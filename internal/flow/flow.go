// Package flow partitions a classified activity stream into independent
// correlation components as it arrives — the shard key of the concurrent
// correlator.
//
// Two activities can influence each other's CAG only through one of the
// engine's two indexes: mmap (one slot per TCP channel) or cmap (one slot
// per execution context), both ordinal tables rebuilt for each pass.
// Closing the trace under those two relations
// yields connected components that correlate independently: running the
// sequential ranker+engine per component produces the same graphs as one
// global pass, because every cross-activity lookup stays inside a
// component.
//
// The channel relation is exact: SEND/RECEIVE byte matching (Fig. 4) is
// per directed channel, and both directions of one TCP connection belong
// together (request and reply share the socket pair), so the shard key
// normalises the endpoint pair. The context relation is where the two
// modes differ:
//
//   - ModeContext unions everything a context ever touches. Thread pools
//     (one JBoss thread serving many connections over its lifetime) chain
//     otherwise-unrelated requests into large components — always safe,
//     sometimes coarse.
//   - ModeFlow (the default) scopes the context relation to request
//     epochs: a context's link chain is broken whenever it starts working
//     on a message that is not connected to what it was doing before (a
//     BEGIN or RECEIVE on a channel from a different component). Thread
//     reuse across requests then no longer merges their components. This
//     matches the engine's own thread-reuse defence (the same-CAG check of
//     Fig. 3 lines 29–32): the context edge a RECEIVE would inherit from a
//     previous epoch is suppressed there too, so splitting the epochs
//     changes no graph.
//
// # The channel-closure guarantee
//
// Incremental maintains one invariant the shard-aware Fig. 5 is_noise
// predicate rests on: a Channel is never split across live components.
// Structurally, every directed channel and its reverse share one
// union-find node (Incremental files Chan.Reverse() under the same
// node), and every branch of Add either files the activity directly
// under its connection's node or unions the activity's epoch/context node
// with it — including the RECEIVE-before-SEND case, where Add joins the
// not-yet-sendful connection to the current epoch (an over-merge, never a
// split). So all SENDs that could match a RECEIVE (same Channel) land in
// the RECEIVE's component, and a per-shard pending/buffered-SEND lookup
// equals the global one. TestChanKeyNeverSplits fuzzes the invariant
// over random interleavings; the streaming session asserts it per push in
// debug builds (core's assertChanClosure). The only sanctioned exception
// is a sealed component: its stragglers detach onto a fresh component by
// design (late links), after the sealed shard's correlation is already
// decided.
package flow

// Mode selects how the context relation is closed over.
type Mode int

const (
	// ModeFlow scopes context links to request epochs (finest safe
	// sharding for well-formed traces).
	ModeFlow Mode = iota
	// ModeContext unions a context's entire lifetime (coarser, robust
	// even to traces with lost epoch boundaries).
	ModeContext
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFlow:
		return "flow"
	case ModeContext:
		return "context"
	default:
		return "unknown"
	}
}

// dsu is a union-find forest over dynamically allocated nodes.
type dsu struct {
	parent []int32
	rank   []int8
}

func (d *dsu) node() int32 {
	n := int32(len(d.parent))
	d.parent = append(d.parent, n)
	d.rank = append(d.rank, 0)
	return n
}

func (d *dsu) find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// union joins the sets of a and b. When two distinct sets merge it
// returns their previous roots as (winner, loser) — the loser's tree is
// now under the winner — so incremental callers can fuse per-component
// bookkeeping; merged is false when a and b were already one set.
func (d *dsu) union(a, b int32) (winner, loser int32, merged bool) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return ra, ra, false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return ra, rb, true
}
