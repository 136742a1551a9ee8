package flow

import (
	"testing"
	"time"

	"repro/internal/activity"
)

// incrementalComponents feeds a trace through Incremental in the given
// arrival order and groups activities by final root.
func incrementalComponents(trace []*activity.Activity, mode Mode) map[int32][]*activity.Activity {
	inc := NewIncremental(mode, nil)
	roots := make([]int32, len(trace))
	for i, a := range trace {
		roots[i] = inc.Add(a)
	}
	byRoot := make(map[int32][]*activity.Activity)
	for i, a := range trace {
		r := inc.Root(roots[i])
		byRoot[r] = append(byRoot[r], a)
	}
	return byRoot
}

func TestIncrementalIndependentRequests(t *testing.T) {
	for _, mode := range []Mode{ModeFlow, ModeContext} {
		comps := incrementalComponents(twoRequests(), mode)
		if len(comps) != 2 {
			t.Fatalf("mode %s: %d components, want 2", mode, len(comps))
		}
		for _, members := range comps {
			if len(members) != 6 {
				t.Fatalf("mode %s: component of %d members, want 6", mode, len(members))
			}
		}
	}
}

func TestIncrementalPersistentConnectionMerges(t *testing.T) {
	tr := twoRequests()
	for _, a := range tr {
		if a.Chan.Src.Port == 50001 {
			a.Chan.Src.Port = 50000
		}
		if a.Chan.Dst.Port == 50001 {
			a.Chan.Dst.Port = 50000
		}
	}
	for _, mode := range []Mode{ModeFlow, ModeContext} {
		if comps := incrementalComponents(tr, mode); len(comps) != 1 {
			t.Fatalf("mode %s: %d components, want 1", mode, len(comps))
		}
	}
}

func TestIncrementalThreadReuseSplitsEpochs(t *testing.T) {
	tr := twoRequests()
	for _, a := range tr {
		if a.Ctx.Host == "app" {
			a.Ctx.TID = 20
		}
	}
	if comps := incrementalComponents(tr, ModeContext); len(comps) != 1 {
		t.Fatalf("ModeContext: %d components, want 1", len(comps))
	}
	if comps := incrementalComponents(tr, ModeFlow); len(comps) != 2 {
		t.Fatalf("ModeFlow: %d components, want 2", len(comps))
	}
}

// TestIncrementalMergeCallback: two components built independently must
// fuse — with the callback reporting the (winner, loser) roots — when a
// linking activity arrives, and stale roots must resolve to the new one.
func TestIncrementalMergeCallback(t *testing.T) {
	var merges int
	inc := NewIncremental(ModeFlow, func(winner, loser int32) {
		if winner == loser {
			t.Fatal("merge reported identical roots")
		}
		merges++
	})
	tr := twoRequests()
	roots := make([]int32, len(tr))
	for i, a := range tr {
		roots[i] = inc.Add(a)
	}
	if inc.Root(roots[0]) == inc.Root(roots[6]) {
		t.Fatal("independent requests share a root")
	}
	if merges == 0 {
		t.Fatal("intra-request unions reported no merges")
	}
	// A persistent-connection reply ties request 1's web→app connection
	// to request 0's: the two components must fuse.
	before := merges
	link := mk(100, activity.Send, 7*time.Millisecond, "app", 20, "10.0.0.2", "10.0.0.1", 8009, 50000, 10)
	link.Ctx.TID = 21 // request 1's app thread
	inc.Add(link)
	if merges == before {
		t.Fatal("linking activity fired no merge callback")
	}
	if inc.Root(roots[0]) != inc.Root(roots[6]) {
		t.Fatal("linked requests do not share a root")
	}
}

// TestIncrementalOnlineReceiveNeverUnderMerges: when a RECEIVE arrives
// before its SEND (the cross-host race), the online partition must still
// keep the receive connected to both its connection and its context's
// flow — coarser is fine, finer is a correctness bug.
func TestIncrementalOnlineReceiveNeverUnderMerges(t *testing.T) {
	tr := twoRequests()[:6] // one request: BEGIN, SEND, RECEIVE, SEND, RECEIVE, END
	// Arrival order: the app-side RECEIVE (index 2) arrives before the
	// web-side SEND (index 1) that produced it.
	order := []int{0, 2, 1, 3, 4, 5}
	inc := NewIncremental(ModeFlow, nil)
	roots := make([]int32, len(tr))
	for _, i := range order {
		roots[i] = inc.Add(tr[i])
	}
	first := inc.Root(roots[order[0]])
	for _, i := range order[1:] {
		if inc.Root(roots[i]) != first {
			t.Fatalf("activity %d split from the request component", i)
		}
	}
}

// TestIncrementalSealDetachesLateLinks: an activity arriving for a
// sealed (dispatched) component must not resurrect its root — it is
// counted as a late link and detached onto a fresh component, while an
// untouched live component keeps working normally.
func TestIncrementalSealDetachesLateLinks(t *testing.T) {
	inc := NewIncremental(ModeFlow, nil)
	tr := twoRequests()
	roots := make([]int32, len(tr))
	for i, a := range tr {
		roots[i] = inc.Add(a)
	}
	sealed := inc.Root(roots[0])   // request 0
	liveRoot := inc.Root(roots[6]) // request 1
	if sealed == liveRoot {
		t.Fatal("fixture: requests share a root")
	}
	inc.Seal(sealed)

	// A straggler on request 0's web→app connection and thread.
	late := mk(100, activity.Send, 7*time.Millisecond, "web", 10, "10.0.0.1", "10.0.0.2", 50000, 8009, 80)
	got := inc.Add(late)
	if got == sealed {
		t.Fatal("late link resurrected the sealed root")
	}
	if got == liveRoot {
		t.Fatal("late link merged into an unrelated live component")
	}
	if inc.LateLinks() != 1 {
		t.Fatalf("LateLinks = %d, want 1", inc.LateLinks())
	}
	// A second straggler on the same connection joins the detached fresh
	// component, not the sealed one — the split request stays coherent.
	late2 := mk(101, activity.Send, 8*time.Millisecond, "web", 10, "10.0.0.1", "10.0.0.2", 50000, 8009, 80)
	if got2 := inc.Add(late2); inc.Root(got2) != inc.Root(got) {
		t.Fatal("stragglers split across fresh components")
	}
	// The live component still accepts activities under its own root.
	more := mk(102, activity.Send, time.Second+7*time.Millisecond, "web", 11, "10.0.0.1", "10.0.0.2", 50001, 8009, 80)
	if r := inc.Add(more); inc.Root(r) != inc.Root(liveRoot) {
		t.Fatal("live component broken by an unrelated seal")
	}
}

// TestIncrementalPruneBoundsMaps is the continuous-operation memory
// guarantee: dispatching and pruning components keeps the interning maps
// bounded by the *open* components, no matter how many connections the
// session has ever seen; and a post-prune return of a connection starts a
// fresh component instead of merging into freed state.
func TestIncrementalPruneBoundsMaps(t *testing.T) {
	for _, mode := range []Mode{ModeFlow, ModeContext} {
		inc := NewIncremental(mode, nil)
		inc.EnablePruning()
		// One request's worth of interning: 4 directed channels (2 conns
		// × 2 directions) and 2 contexts.
		const maxDirs, maxCtxs = 4, 2
		var openRoot int32 = -1
		for r := 0; r < 200; r++ {
			tr := twoRequests()[:6]
			for _, a := range tr {
				// Distinct ports/threads per round: every round is a new
				// connection the maps would otherwise remember forever.
				a.Chan.Src.Port += int32(r) * 10
				a.Chan.Dst.Port += int32(r) * 10
				a.Ctx.TID += int32(r) * 10
				a.Timestamp += time.Duration(r) * 10 * time.Millisecond
				openRoot = inc.Add(a)
			}
			inc.Seal(openRoot)
			inc.Prune(openRoot)
			dirs, epochs, ctxNodes := inc.Sizes()
			if dirs > maxDirs || epochs+ctxNodes > maxCtxs {
				t.Fatalf("mode %s round %d: maps grew past one open component: dirs=%d epochs=%d ctxNodes=%d",
					mode, r, dirs, epochs, ctxNodes)
			}
		}
		if dirs, epochs, ctxNodes := inc.Sizes(); dirs != 0 || epochs != 0 || ctxNodes != 0 {
			t.Fatalf("mode %s: maps not empty after pruning everything: %d/%d/%d", mode, dirs, epochs, ctxNodes)
		}
		if inc.Pruned() != 200 {
			t.Fatalf("mode %s: Pruned = %d, want 200", mode, inc.Pruned())
		}
		// A connection from a pruned component returning after the prune
		// is a fresh component: no merge into freed state, and (the
		// documented limit) no longer countable as a late link.
		before := inc.LateLinks()
		back := mk(999, activity.Send, time.Hour, "web", 10, "10.0.0.1", "10.0.0.2", 50000, 8009, 80)
		fresh := inc.Add(back)
		if inc.Root(fresh) == inc.Root(openRoot) {
			t.Fatal("post-prune activity merged into the pruned root")
		}
		if inc.LateLinks() != before {
			t.Fatalf("post-prune activity counted as a late link (%d -> %d)", before, inc.LateLinks())
		}
	}
}

// TestIncrementalPruneSkipsReopenedEpoch: pruning one component must not
// delete a context's epoch that has since moved on to a live component
// (the reverse index holds stale keys; Prune must re-resolve them).
func TestIncrementalPruneSkipsReopenedEpoch(t *testing.T) {
	inc := NewIncremental(ModeFlow, nil)
	inc.EnablePruning()
	tr := twoRequests()
	// Same worker thread serves both requests: the context's epoch chain
	// is split per request, so request 0's epoch key goes stale when
	// request 1 begins.
	for _, a := range tr {
		if a.Ctx.Host == "web" {
			a.Ctx.TID = 10
		}
		if a.Ctx.Host == "app" {
			a.Ctx.TID = 20
		}
	}
	var r0, r1 int32
	for i, a := range tr {
		r := inc.Add(a)
		if i == 0 {
			r0 = r
		}
		if i == 6 {
			r1 = r
		}
	}
	if inc.Root(r0) == inc.Root(r1) {
		t.Skip("fixture merged into one component; epoch-reopen case not exercised")
	}
	inc.Seal(inc.Root(r0))
	inc.Prune(inc.Root(r0))
	// Request 1's epochs must have survived: a follow-up activity on its
	// thread and connection still joins request 1's component.
	more := mk(200, activity.Send, time.Second+7*time.Millisecond, "web", 10, "10.0.0.1", "10.0.0.2", 50001, 8009, 80)
	if r := inc.Add(more); inc.Root(r) != inc.Root(r1) {
		t.Fatal("pruning request 0 severed request 1's live epoch")
	}
}

// TestIncrementalNoiseReceiveKeepsChain: a receive on a direction that
// never carries a SEND must not break the surrounding request's epoch
// chain (the noise may merge into the request, but the request must stay
// whole).
func TestIncrementalNoiseReceiveKeepsChain(t *testing.T) {
	tr := twoRequests()[:6]
	noise := mk(99, activity.Receive, 2500*time.Microsecond, "web", 10, "10.0.0.99", "10.0.0.1", 6000, 22, 64)
	seq := append(tr[:2:2], append([]*activity.Activity{noise}, tr[2:]...)...)
	inc := NewIncremental(ModeFlow, nil)
	roots := make([]int32, len(seq))
	for i, a := range seq {
		roots[i] = inc.Add(a)
	}
	// All six request activities share one component.
	reqRoot := inc.Root(roots[0])
	for i, a := range seq {
		if a == noise {
			continue
		}
		if inc.Root(roots[i]) != reqRoot {
			t.Fatalf("request activity %d split off", i)
		}
	}
}
