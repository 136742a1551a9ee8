package flow

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/activity"
)

// TestChanKeyNeverSplits is the property test behind the shard-aware
// Fig. 5 predicate (see the package doc's channel-closure guarantee and
// ranker.matchingSendVisible): under random request topologies, port
// reuse, thread-pool reuse, send-less noise RECEIVEs and fully random
// arrival orders — including RECEIVE arriving before its SEND, the
// over-merge case — no Channel may ever land in two components. Checked
// for the Incremental partitioner.
func TestChanKeyNeverSplits(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomInvariantTrace(rng)
		rng.Shuffle(len(tr), func(i, j int) { tr[i], tr[j] = tr[j], tr[i] })

		inc := NewIncremental(ModeFlow, nil)
		roots := make([]int32, len(tr))
		for i, a := range tr {
			roots[i] = inc.Add(a)
		}
		owner := make(map[activity.Channel]int32)
		for i, a := range tr {
			norm := normChan(a.Chan)
			root := inc.Root(roots[i])
			if prev, ok := owner[norm]; ok && prev != root {
				t.Fatalf("seed %d: channel %v split across components %d and %d (incremental)",
					seed, norm, prev, root)
			}
			owner[norm] = root
		}
	}
}

// TestChanKeySplitsOnlyAtSeals extends the property to the continuous
// session's lifecycle: with components sealed mid-stream, a connection's
// assignment may move to a fresh component ONLY when its previous owner
// was tombstoned (the sanctioned late-link detach) — never between two
// live components.
func TestChanKeySplitsOnlyAtSeals(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomInvariantTrace(rng)
		rng.Shuffle(len(tr), func(i, j int) { tr[i], tr[j] = tr[j], tr[i] })

		inc := NewIncremental(ModeFlow, nil)
		inc.EnablePruning()
		owner := make(map[activity.Channel]int32)
		var added []int32
		for _, a := range tr {
			n := inc.Add(a)
			norm := normChan(a.Chan)
			if prev, ok := owner[norm]; ok {
				pr := inc.Root(prev)
				if pr != n && !inc.sealed(pr) {
					t.Fatalf("seed %d: channel %v moved from live component %d to %d without a seal",
						seed, norm, pr, n)
				}
			}
			owner[norm] = n
			added = append(added, n)
			// Seal a random already-seen component now and then, the
			// way a horizon would, so later adds on its connections
			// exercise the late-link detach.
			if rng.Intn(16) == 0 {
				inc.Seal(added[rng.Intn(len(added))])
			}
		}
	}
}

// normChan collapses a channel and its reverse onto one representative,
// so both directions of a connection count as the same key. It picks by
// the printed form, never by symbol value.
func normChan(k activity.Channel) activity.Channel {
	if r := k.Reverse(); r.String() < k.String() {
		return r
	}
	return k
}

// randomInvariantTrace builds a randomized multi-tier workload: requests
// fan client→web→app with an optional app→db hop, ephemeral ports drawn
// from small pools (so connections persist across requests and merge
// components), worker threads drawn from small pools (thread reuse), and
// occasional send-less noise RECEIVEs from untraced clients (the inert-
// receive branch).
func randomInvariantTrace(rng *rand.Rand) []*activity.Activity {
	var tr []*activity.Activity
	id := int64(0)
	next := func() int64 { id++; return id }
	for r := 0; r < 24; r++ {
		base := time.Duration(r) * 10 * time.Millisecond
		cp := 40000 + rng.Intn(40)
		wp := 50000 + rng.Intn(20)
		wtid := 10 + rng.Intn(4)
		atid := 20 + rng.Intn(4)
		tr = append(tr,
			mk(next(), activity.Begin, base+1*time.Millisecond, "web", wtid, "10.9.0.9", "10.0.0.1", cp, 80, 100),
			mk(next(), activity.Send, base+2*time.Millisecond, "web", wtid, "10.0.0.1", "10.0.0.2", wp, 8009, 80),
			mk(next(), activity.Receive, base+3*time.Millisecond, "app", atid, "10.0.0.1", "10.0.0.2", wp, 8009, 80),
		)
		if rng.Intn(2) == 0 { // optional db hop
			ap := 60000 + rng.Intn(20)
			dtid := 30 + rng.Intn(4)
			tr = append(tr,
				mk(next(), activity.Send, base+4*time.Millisecond, "app", atid, "10.0.0.2", "10.0.0.3", ap, 3306, 60),
				mk(next(), activity.Receive, base+5*time.Millisecond, "db", dtid, "10.0.0.2", "10.0.0.3", ap, 3306, 60),
				mk(next(), activity.Send, base+6*time.Millisecond, "db", dtid, "10.0.0.3", "10.0.0.2", 3306, ap, 200),
				mk(next(), activity.Receive, base+7*time.Millisecond, "app", atid, "10.0.0.3", "10.0.0.2", 3306, ap, 200),
			)
		}
		tr = append(tr,
			mk(next(), activity.Send, base+8*time.Millisecond, "app", atid, "10.0.0.2", "10.0.0.1", 8009, wp, 300),
			mk(next(), activity.Receive, base+9*time.Millisecond, "web", wtid, "10.0.0.2", "10.0.0.1", 8009, wp, 300),
			mk(next(), activity.End, base+10*time.Millisecond, "web", wtid, "10.0.0.1", "10.9.0.9", 80, cp, 400),
		)
		if rng.Intn(3) == 0 { // untraced noise: RECEIVE with no SEND ever
			tr = append(tr,
				mk(next(), activity.Receive, base+time.Duration(rng.Int63n(int64(10*time.Millisecond))), "web", 10+rng.Intn(4),
					"10.9.9.9", "10.0.0.1", 55000+rng.Intn(8), 23, 50))
		}
	}
	return tr
}
