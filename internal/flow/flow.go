// Package flow partitions a classified activity trace into independent
// correlation components — the shard key of the concurrent correlator.
//
// Two activities can influence each other's CAG only through one of the
// engine's two index maps: mmap (keyed by the TCP channel) or cmap (keyed
// by the execution context). Closing the trace under those two relations
// yields connected components that correlate independently: running the
// sequential ranker+engine per component produces the same graphs as one
// global pass, because every cross-activity lookup stays inside a
// component.
//
// The channel relation is exact: SEND/RECEIVE byte matching (Fig. 4) is
// per directed channel, and both directions of one TCP connection belong
// together (request and reply share the socket pair), so the shard key
// normalises the endpoint pair. The context relation is where the two
// partition modes differ:
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
// Both partitioners — the batch Partition scan and the online
// Incremental — maintain one invariant the shard-aware Fig. 5
// is_noise predicate rests on: a ChanKey is never split across live
// components. Structurally, every directed channel and its reverse share
// one union-find node (the batch scan interns both directions to one
// dense id; Incremental files ChanK.Reverse() under the same node), and
// every branch of every scan either files the activity directly under its
// connection's node or unions the activity's epoch/context node with it —
// including the RECEIVE-before-SEND case, where the online scan joins the
// not-yet-sendful connection to the current epoch (an over-merge, never a
// split). So all SENDs that could match a RECEIVE (same ChanKey) land in
// the RECEIVE's component, and a per-shard pending/buffered-SEND lookup
// equals the global one. TestChanKeyNeverSplits fuzzes the invariant over
// random interleavings; the streaming session asserts it per push in
// debug builds (core's assertChanClosure). The only sanctioned exception
// is a sealed component: its stragglers detach onto a fresh component by
// design (late links), after the sealed shard's correlation is already
// decided.
package flow

import (
	"sort"
	"time"

	"repro/internal/activity"
	"repro/internal/ranker"
)

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

// Component is one independent shard of the trace. Activities keep each
// host's local-clock order (the order the per-node sources need).
type Component struct {
	// Activities holds the member records grouped by host in sorted host
	// order, each host run in local-timestamp order. Consumers can slice
	// per-node sources out of it by cutting at host changes — no re-sort
	// is ever needed.
	Activities []*activity.Activity
	// MinTimestamp is the earliest member timestamp — the deterministic
	// component ordering key.
	MinTimestamp time.Duration
}

// HostRuns cuts the component into its per-host runs, in sorted host
// order. Each run is one node's log slice in local-timestamp order.
func (c *Component) HostRuns() [][]*activity.Activity {
	var runs [][]*activity.Activity
	at := 0
	for i := 1; i <= len(c.Activities); i++ {
		if i == len(c.Activities) || c.Activities[i].Ctx.Host != c.Activities[at].Ctx.Host {
			runs = append(runs, c.Activities[at:i])
			at = i
		}
	}
	return runs
}

// hostSyms sorts host symbols by their interned names — the deterministic
// host order every partition variant scans in (dense keys bucket the
// hosts, strings still define the order).
func hostSyms(byHost map[activity.Sym][]*activity.Activity) []activity.Sym {
	hosts := make([]activity.Sym, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool {
		return activity.Syms.Name(hosts[i]) < activity.Syms.Name(hosts[j])
	})
	return hosts
}

// Partition splits a classified trace into independent components. The
// result is deterministic for a given input order: components are sorted
// by (earliest member timestamp, first appearance in the host-major scan),
// and members preserve per-host stable timestamp order.
//
// The scan itself lives in partitionHosts (partition.go): contexts are
// host-local, so the trace is scanned per host and the per-host forests
// are stitched by a final union pass over the cross-host channel links.
func Partition(trace []*activity.Activity, mode Mode) []Component {
	if len(trace) == 0 {
		return nil
	}
	byHost, hosts := splitHosts(trace)
	return partitionHosts(byHost, hosts, mode)
}

// splitHosts buckets a merged trace into per-host node logs in
// local-timestamp order and returns the host list sorted by name — the
// paper's step 1 (each node log sorted by its local clock). It is also
// the batch path's bind point: every record leaves with its dense keys
// filled, so the per-host scans that follow only read them.
func splitHosts(trace []*activity.Activity) (map[activity.Sym][]*activity.Activity, []activity.Sym) {
	byHost := make(map[activity.Sym][]*activity.Activity)
	for _, a := range trace {
		if !a.CtxK.Bound() {
			activity.Bind(a)
		}
		byHost[a.CtxK.Host] = append(byHost[a.CtxK.Host], a)
	}
	for _, log := range byHost {
		// Node logs split from a merged trace are almost always already in
		// local order; checking is ~10× cheaper than re-sorting. The
		// fallback must be ranker.SortByTimestamp — shard-local source
		// order has to match the sequential pass exactly.
		for i := 1; i < len(log); i++ {
			if log[i].Timestamp < log[i-1].Timestamp {
				ranker.SortByTimestamp(log)
				break
			}
		}
	}
	return byHost, hostSyms(byHost)
}

// group buckets the host-major scan by final union-find root, tracking
// first-appearance order and minimum timestamp per component, and returns
// the components in deterministic (MinTimestamp, first appearance) order —
// the ordering contract every Partition variant shares.
func group(scan []*activity.Activity, rootOf func(int) int32) []Component {
	compIdx := make(map[int32]int)
	var comps []Component
	for i, a := range scan {
		root := rootOf(i)
		ci, ok := compIdx[root]
		if !ok {
			ci = len(comps)
			compIdx[root] = ci
			comps = append(comps, Component{MinTimestamp: a.Timestamp})
		}
		c := &comps[ci]
		c.Activities = append(c.Activities, a)
		if a.Timestamp < c.MinTimestamp {
			c.MinTimestamp = a.Timestamp
		}
	}

	sort.SliceStable(comps, func(i, j int) bool {
		return comps[i].MinTimestamp < comps[j].MinTimestamp
	})
	return comps
}
