package flow

import (
	"time"

	"repro/internal/activity"
)

// Incremental partitions the activity stream online: it assigns each
// pushed activity to a flow component *as it arrives*, merging components
// whenever a TCP connection or a context's request epoch links them. The
// epochs mirror the engine's same-CAG check (Fig. 3 lines 29–32), so a
// pooled thread's successive requests stay in separate components. It powers the
// streaming session (internal/core): the session keys its per-component
// buffers on the roots returned by Add and fuses them in the OnMerge
// callback.
//
// A RECEIVE on a direction that has carried no SEND so far is the one
// case Add cannot decide from what it has seen: the RECEIVE may be inert
// noise whose sender is untraced (the engine can never match it), or the
// SEND logged on its peer host may simply not have been pushed yet. Add
// therefore joins such a RECEIVE to both its connection and the context's
// current epoch, without breaking the epoch. That coarsening only ever
// adds unions — it never removes a closure link — so per-component
// correlation stays exact; shards are merely sometimes larger. How much
// larger is decided by the order of the Add calls: fed the cross-host
// timestamp merge, a RECEIVE rarely precedes its SEND and components stay
// request-sized; fed independently batched host streams in arrival order,
// nearly everything fuses. Restoring that order is the feeder's job —
// core.Ingest does it for the networked path (see its type comment).
//
// Determinism: for a fixed sequence of Add calls the assignments, merges
// and final roots are fully deterministic. Add is not safe for concurrent
// use; the caller serialises (the Session push path is single-goroutine).
//
// Add upholds the package's channel-closure guarantee (see the package
// doc): every branch below either files the activity under its
// connection's node or unions the epoch node with it, so a
// Channel never splits across live components — the invariant the
// shard-aware exact is_noise predicate relies on, fuzzed by
// TestChanKeyNeverSplits.
//
// Memory: the interning maps grow with every distinct connection and
// epoch seen — unbounded for a single Session fed forever — unless the
// caller retires dispatched components with Seal and Prune (tracking
// enabled via EnablePruning). Seal tombstones a component's root: a
// later activity resolving to it (a "late link") is counted in
// LateLinks and detached onto a fresh component instead of resurrecting
// the dispatched shard. Prune then deletes the component's
// dir/epoch entries, so the maps stay bounded by *open* (plus
// sealed-but-unpruned) components. The union-find parent array itself
// still grows one slot per node — a few bytes per connection, accepted;
// the maps and their keys were the leak.
type Incremental struct {
	d       dsu
	dir     map[activity.Channel]chanInfo
	epoch   map[activity.CtxKey]int32 // a context's current request epoch
	onMerge func(winner, loser int32)

	keys       map[int32]*compKeys // root -> keys for Prune; nil = untracked
	tombstones map[int32]struct{}  // sealed roots: late links detach
	scheduled  []pendingPrune      // prunes deferred to a future clock
	keyPool    []*compKeys         // recycled reverse-index entries
	lateLinks  int
	pruned     int
}

// pendingPrune is one sealed root awaiting its deferred prune: freed once
// the caller's activity clock reaches at (see SchedulePrune).
type pendingPrune struct {
	root int32
	at   time.Duration
}

// chanInfo is the interned view of one directed channel: the union-find
// node shared by both directions of the connection, and whether any
// SEND/END was logged in this direction so far (a RECEIVE on a send-less
// direction is inert — the engine can never match it). Stored by value in
// dir (read-modify-write), so interning a direction allocates nothing.
type chanInfo struct {
	node    int32
	sendful bool
}

// compKeys is the reverse index Prune needs: every map key ever
// associated with a component's root, folded across merges. Entries may
// go stale (a context's epoch moves to another root); Prune re-resolves
// each key before deleting.
type compKeys struct {
	chans []activity.Channel
	ctxs  []activity.CtxKey
}

// NewIncremental returns an empty incremental partitioner; the Mode is
// always ModeFlow. onMerge, when non-nil, fires synchronously inside Add
// whenever two distinct components fuse: the loser root's bookkeeping
// must be folded into the winner root's before Add returns.
func NewIncremental(_ Mode, onMerge func(winner, loser int32)) *Incremental {
	return &Incremental{
		dir:        make(map[activity.Channel]chanInfo),
		epoch:      make(map[activity.CtxKey]int32),
		onMerge:    onMerge,
		tombstones: make(map[int32]struct{}),
	}
}

// EnablePruning turns on the reverse index Prune needs to free a
// component's map entries. Must be called before the first Add: the
// index is complete only if every key was recorded from the start.
// Callers that never retire components (close-driven sessions) skip it
// and pay no per-key tracking cost.
func (in *Incremental) EnablePruning() {
	in.keys = make(map[int32]*compKeys)
}

// union joins two nodes' sets, folding the loser root's reverse-index
// keys into the winner's before the user merge callback fires.
func (in *Incremental) union(a, b int32) {
	if w, l, merged := in.d.union(a, b); merged {
		if lk := in.keys[l]; lk != nil {
			if wk := in.keys[w]; wk != nil {
				wk.chans = append(wk.chans, lk.chans...)
				wk.ctxs = append(wk.ctxs, lk.ctxs...)
				in.recycleKeys(lk)
			} else {
				in.keys[w] = lk
			}
			delete(in.keys, l)
		}
		if in.onMerge != nil {
			in.onMerge(w, l)
		}
	}
}

// sealed reports whether the node currently resolves to a tombstoned
// (sealed/dispatched) root.
func (in *Incremental) sealed(n int32) bool {
	_, ok := in.tombstones[in.d.find(n)]
	return ok
}

func (in *Incremental) rootKeys(n int32) *compKeys {
	r := in.d.find(n)
	k := in.keys[r]
	if k == nil {
		if p := len(in.keyPool); p > 0 {
			k = in.keyPool[p-1]
			in.keyPool = in.keyPool[:p-1]
		} else {
			k = &compKeys{}
		}
		in.keys[r] = k
	}
	return k
}

// recycleKeys returns a detached reverse-index entry to the pool with its
// capacity intact, so a continuous session's steady churn of short-lived
// components stops allocating per-component key tracking. The pool is
// capped: beyond it, retiring a large entry releases its memory instead
// of pinning it.
func (in *Incremental) recycleKeys(k *compKeys) {
	if len(in.keyPool) >= 64 {
		return
	}
	k.chans = k.chans[:0]
	k.ctxs = k.ctxs[:0]
	in.keyPool = append(in.keyPool, k)
}

func (in *Incremental) noteChan(ch activity.Channel, n int32) {
	if in.keys == nil {
		return
	}
	k := in.rootKeys(n)
	k.chans = append(k.chans, ch)
}

func (in *Incremental) noteCtx(ctx activity.CtxKey, n int32) {
	if in.keys == nil {
		return
	}
	k := in.rootKeys(n)
	k.ctxs = append(k.ctxs, ctx)
}

// channel interns the activity's directed channel, sharing one union-find
// node across both directions of the connection, and records whether this
// direction has carried a SEND/END so far. late reports that an existing
// entry resolved to a sealed root and was detached onto a fresh node.
func (in *Incremental) channel(a *activity.Activity) (ci chanInfo, late bool) {
	ci, ok := in.dir[a.Chan]
	if ok && in.sealed(ci.node) {
		delete(in.dir, a.Chan)
		ok, late = false, true
	}
	if !ok {
		revKey := a.Chan.Reverse()
		rev, revOK := in.dir[revKey]
		if revOK && in.sealed(rev.node) {
			delete(in.dir, revKey)
			revOK, late = false, true
		}
		if revOK {
			ci = chanInfo{node: rev.node}
		} else {
			ci = chanInfo{node: in.d.node()}
		}
		in.dir[a.Chan] = ci
		in.noteChan(a.Chan, ci.node)
	}
	if (a.Type == activity.Send || a.Type == activity.End) && !ci.sendful {
		ci.sendful = true
		in.dir[a.Chan] = ci
	}
	return ci, late
}

// Add assigns one classified activity to its flow component and returns
// the component's current union-find root. Roots are invalidated by later
// merges; OnMerge reports every (winner, loser) transition, and Root
// re-resolves a stale value.
//
// An activity whose interned channel or context resolves to a Sealed root
// is a late link: it is counted in LateLinks and detached — the stale
// entries are re-interned on fresh nodes — so it starts (or joins) a
// fresh component and the dispatched one is never returned again.
func (in *Incremental) Add(a *activity.Activity) int32 {
	activity.Bind(a) // hand-built records reach the partitioner unbound
	ci, late := in.channel(a)
	ch := ci.node

	// Scope the context relation to request epochs, with the send-less
	// RECEIVE coarsening documented on the type.
	//
	// A sealed current epoch matters only on the paths that would union
	// into it (the channel() detach guarantees ch is never sealed, so the
	// find(e) == find(ch) reuse cases can never pick a sealed epoch); the
	// paths that replace the epoch anyway drop the stale reference for
	// free and are NOT late links — a new request beginning on a retired
	// thread is normal operation, not a straggler.
	e, ok := in.epoch[a.CtxK]
	var n int32
	switch a.Type {
	case activity.Begin:
		if ok && in.d.find(e) == in.d.find(ch) {
			n = e
		} else {
			e = in.d.node()
			in.union(e, ch)
			in.epoch[a.CtxK] = e
			in.noteCtx(a.CtxK, e)
			n = e
		}
	case activity.Receive:
		switch {
		case ok && in.d.find(e) == in.d.find(ch):
			n = e
		case !ci.sendful:
			// No SEND seen on this direction *yet*: the RECEIVE may be
			// inert noise or may precede its SEND, so join the
			// connection to the current epoch without breaking it —
			// coarser, never under-merged.
			if ok && in.sealed(e) {
				// Fresh connection, retired epoch: a reused idle thread
				// starting new work. Joining the old epoch was only the
				// online coarsening, so detach silently — not a late
				// link (a true per-request straggler arrives on the
				// sealed component's own connection and is counted by
				// the channel detach above).
				delete(in.epoch, a.CtxK)
				ok = false
			}
			if !ok {
				e = in.d.node()
				in.epoch[a.CtxK] = e
				in.noteCtx(a.CtxK, e)
			}
			in.union(e, ch)
			n = e
		default:
			e = in.d.node()
			in.union(e, ch)
			in.epoch[a.CtxK] = e
			in.noteCtx(a.CtxK, e)
			n = e
		}
	default: // Send, End, MaxType
		if ok && in.sealed(e) {
			// The context keeps sending after its epoch's component was
			// dispatched: work the forced seal cut mid-request — the CAG
			// is split, so this IS a late link.
			delete(in.epoch, a.CtxK)
			ok, late = false, true
		}
		if !ok {
			e = in.d.node()
			in.epoch[a.CtxK] = e
			in.noteCtx(a.CtxK, e)
		}
		in.union(e, ch)
		n = e
	}
	if late {
		in.lateLinks++
	}
	return in.d.find(n)
}

// Seal tombstones a component's root: the caller has dispatched the
// component and its buffers must never grow again. From now on an
// activity resolving to this root is a late link — counted, detached
// onto a fresh component — and the root is never returned by Add again.
// Seal is idempotent; Prune frees the component's map entries later.
func (in *Incremental) Seal(root int32) {
	in.tombstones[in.d.find(root)] = struct{}{}
}

// Prune deletes a sealed component's interning entries — its share of
// dir/epoch — and retires the tombstone, bounding the maps by
// the components not yet pruned. Requires EnablePruning before the
// first Add (without the key index Prune only drops the tombstone).
// Keys that moved on (an epoch re-opened under a live root, or an entry
// already detached by a late link) are left alone. After Prune the
// component is indistinguishable from never having been seen: a
// returning connection starts a fresh component without incrementing
// LateLinks, which is why callers should keep the Seal→Prune window
// wide enough to catch the stragglers they care about (the sharded
// Session prunes one seal horizon after dispatch).
func (in *Incremental) Prune(root int32) {
	root = in.d.find(root)
	if k := in.keys[root]; k != nil {
		for _, ch := range k.chans {
			if ci, ok := in.dir[ch]; ok && in.d.find(ci.node) == root {
				delete(in.dir, ch)
			}
		}
		for _, cx := range k.ctxs {
			if e, ok := in.epoch[cx]; ok && in.d.find(e) == root {
				delete(in.epoch, cx)
			}
		}
		delete(in.keys, root)
		in.recycleKeys(k)
	}
	// Every entry resolving to the root is gone, so Add can never reach
	// the tombstone again — drop it too, keeping ALL bookkeeping bounded.
	delete(in.tombstones, root)
	in.pruned++
}

// SchedulePrune defers a sealed root's Prune until the caller's activity
// clock reaches at: call PruneBefore with the advancing clock to execute
// the backlog. Keeping the Seal→Prune window open until at preserves
// late-link detection for exactly as long as the caller's sender-liveness
// bounds admit stragglers — with per-host seal horizons the window is per
// component, so deadlines are not monotone and the queue is scanned, not
// popped. The caller must have Sealed the root already.
func (in *Incremental) SchedulePrune(root int32, at time.Duration) {
	in.scheduled = append(in.scheduled, pendingPrune{root: in.d.find(root), at: at})
}

// PruneBefore prunes every scheduled root whose deadline lies strictly
// before clock, returning how many were freed. The scan is linear in the
// scheduled backlog, which the caller's horizons keep bounded by
// recently-dispatched components.
func (in *Incremental) PruneBefore(clock time.Duration) int {
	if len(in.scheduled) == 0 {
		return 0
	}
	kept := in.scheduled[:0]
	n := 0
	for _, p := range in.scheduled {
		if p.at < clock {
			in.Prune(p.root)
			n++
		} else {
			kept = append(kept, p)
		}
	}
	in.scheduled = kept
	return n
}

// Root resolves a component id previously returned by Add to its current
// root, following any merges since.
func (in *Incremental) Root(n int32) int32 { return in.d.find(n) }

// LateLinks returns how many added activities genuinely linked to a
// sealed (dispatched) component — arrived on one of its connections, or
// continued its context mid-request — and were detached onto a fresh
// component: each a correlation the forced-seal tradeoff gave up. A new
// request merely *beginning* on a reused idle thread (or a fresh
// connection touching a retired epoch through the online coarsening) is
// detached without being counted; it never belonged to the dispatched
// work.
func (in *Incremental) LateLinks() int { return in.lateLinks }

// Sizes returns the interning map populations (directed channels and
// request epochs) — the quantities Prune keeps bounded by unpruned
// components.
func (in *Incremental) Sizes() (dirs, epochs int) {
	return len(in.dir), len(in.epoch)
}
