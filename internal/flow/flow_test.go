package flow

import (
	"testing"
	"time"

	"repro/internal/activity"
)

// mk builds one activity for the hand-written partition fixtures.
func mk(id int64, typ activity.Type, ts time.Duration, host string, tid int, src, dst string, srcPort, dstPort int, size int64) *activity.Activity {
	return &activity.Activity{
		ID:        id,
		Type:      typ,
		Timestamp: ts,
		Ctx:       activity.Context{Host: host, Program: "p", PID: 1, TID: int32(tid)},
		Chan: activity.Channel{
			Src: activity.EP(src, srcPort),
			Dst: activity.EP(dst, dstPort),
		},
		Size:  size,
		ReqID: -1, MsgID: -1,
	}
}

// twoRequests builds two fully independent requests: client→web BEGIN,
// web→app SEND/RECEIVE, app→web reply, web→client END, on distinct
// connections and distinct worker threads.
func twoRequests() []*activity.Activity {
	var tr []*activity.Activity
	for r := 0; r < 2; r++ {
		base := time.Duration(r) * time.Second
		cp := 40000 + r // client ephemeral port
		wp := 50000 + r // web ephemeral port toward app
		wtid := 10 + r
		atid := 20 + r
		tr = append(tr,
			mk(int64(r*10+0), activity.Begin, base+1*time.Millisecond, "web", wtid, "10.0.0.9", "10.0.0.1", cp, 80, 100),
			mk(int64(r*10+1), activity.Send, base+2*time.Millisecond, "web", wtid, "10.0.0.1", "10.0.0.2", wp, 8009, 80),
			mk(int64(r*10+2), activity.Receive, base+3*time.Millisecond, "app", atid, "10.0.0.1", "10.0.0.2", wp, 8009, 80),
			mk(int64(r*10+3), activity.Send, base+4*time.Millisecond, "app", atid, "10.0.0.2", "10.0.0.1", 8009, wp, 300),
			mk(int64(r*10+4), activity.Receive, base+5*time.Millisecond, "web", wtid, "10.0.0.2", "10.0.0.1", 8009, wp, 300),
			mk(int64(r*10+5), activity.End, base+6*time.Millisecond, "web", wtid, "10.0.0.1", "10.0.0.9", 80, cp, 400),
		)
	}
	return tr
}

// partition feeds a whole trace through Incremental, the one remaining
// partitioner, and returns its components in order of first arrival.
func partition(trace []*activity.Activity, mode Mode) [][]*activity.Activity {
	inc := NewIncremental(mode, nil)
	roots := make([]int32, len(trace))
	for i, a := range trace {
		roots[i] = inc.Add(a)
	}
	index := make(map[int32]int)
	var comps [][]*activity.Activity
	for i, a := range trace {
		r := inc.Root(roots[i])
		j, ok := index[r]
		if !ok {
			j = len(comps)
			index[r] = j
			comps = append(comps, nil)
		}
		comps[j] = append(comps[j], a)
	}
	return comps
}

// swapRequests returns the two-request trace with the second request's
// activities arriving before the first's.
func swapRequests(tr []*activity.Activity) []*activity.Activity {
	return append(append([]*activity.Activity(nil), tr[6:]...), tr[:6]...)
}

// TestPartitionIndependentRequests: two unrelated requests stay two
// six-activity components in both modes, whichever request arrives first.
func TestPartitionIndependentRequests(t *testing.T) {
	for _, mode := range []Mode{ModeFlow, ModeContext} {
		for _, tr := range [][]*activity.Activity{twoRequests(), swapRequests(twoRequests())} {
			comps := partition(tr, mode)
			if len(comps) != 2 {
				t.Fatalf("mode %s: got %d components, want 2", mode, len(comps))
			}
			for i, c := range comps {
				if len(c) != 6 {
					t.Fatalf("mode %s: component %d has %d activities, want 6", mode, i, len(c))
				}
				for _, a := range c[1:] {
					if a.Timestamp/time.Second != c[0].Timestamp/time.Second {
						t.Fatalf("mode %s: component %d mixes the two requests", mode, i)
					}
				}
			}
		}
	}
}

// TestPartitionThreadReuse is the case the two modes disagree on: the same
// app thread serves both requests (pool reuse). ModeContext chains them
// into one component; ModeFlow splits them at the epoch boundary because
// the second request arrives on a connection unrelated to the first. The
// split holds whichever request the thread serves first.
func TestPartitionThreadReuse(t *testing.T) {
	tr := twoRequests()
	for _, a := range tr {
		if a.Ctx.Host == "app" {
			a.Ctx.TID = 20 // one shared thread
		}
	}
	for _, order := range [][]*activity.Activity{tr, swapRequests(tr)} {
		if got := partition(order, ModeContext); len(got) != 1 {
			t.Fatalf("ModeContext: got %d components, want 1", len(got))
		}
		if got := partition(order, ModeFlow); len(got) != 2 {
			t.Fatalf("ModeFlow: got %d components, want 2", len(got))
		}
	}
}

// TestPartitionPersistentConnection: both requests reuse one web→app
// connection, so the shared connection couples them and both modes must
// keep them together, whichever request arrives first.
func TestPartitionPersistentConnection(t *testing.T) {
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
		for _, order := range [][]*activity.Activity{tr, swapRequests(tr)} {
			if got := partition(order, mode); len(got) != 1 {
				t.Fatalf("mode %s: got %d components, want 1", mode, len(got))
			}
		}
	}
}

// TestPartitionInertReceiveKeepsEpoch: a noise RECEIVE (sender untraced,
// no SEND anywhere on its directed channel) on the worker's context must
// not break the request's epoch chain in ModeFlow. Logged before the
// request's BEGIN it stays a component of its own; logged mid-request it
// may join the request, but the request stays whole.
func TestPartitionInertReceiveKeepsEpoch(t *testing.T) {
	req := twoRequests()[:6] // one request
	noise := mk(99, activity.Receive, 500*time.Microsecond, "web", 10, "10.0.0.99", "10.0.0.1", 6000, 22, 64)

	before := append([]*activity.Activity{noise}, req...)
	comps := partition(before, ModeFlow)
	if len(comps) != 2 || len(comps[0]) != 1 || len(comps[1]) != 6 {
		var sizes []int
		for _, c := range comps {
			sizes = append(sizes, len(c))
		}
		t.Fatalf("noise before BEGIN: component sizes %v, want [1 6]", sizes)
	}

	mid := append(req[:2:2], append([]*activity.Activity{noise}, req[2:]...)...)
	comps = partition(mid, ModeFlow)
	for _, c := range comps {
		n := 0
		for _, a := range c {
			if a != noise {
				n++
			}
		}
		if n != 0 && n != 6 {
			t.Fatalf("noise mid-request: a component holds %d of the request's 6 activities", n)
		}
	}
}
