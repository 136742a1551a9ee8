package ranker

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/engine"
)

// TestRankEdgeCases is the table-driven sweep over the degenerate inputs
// Rule 1/2 must stay deterministic on: zero-duration activities (several
// records at one instant on one node), identical timestamps across hosts
// (Rule 2's tie broken by type priority alone), and flows reduced to a
// single activity.
func TestRankEdgeCases(t *testing.T) {
	webApp2 := activity.Channel{Src: activity.EP("10.0.0.1", 34002), Dst: activity.EP("10.0.0.2", 8009)}

	cases := []struct {
		name  string
		trace []*activity.Activity
		// wantTypes is the exact candidate order the ranker must emit.
		wantTypes []activity.Type
		// wantFinished counts CAGs the engine completes.
		wantFinished uint64
		wantNoise    uint64
		wantForced   uint64
	}{
		{
			name: "zero duration request",
			// The entire request happens at t=0 on every node: ordering
			// falls back to type priority and host order, and SEND must
			// still reach the engine before its RECEIVE.
			trace: []*activity.Activity{
				act(activity.Begin, 0, httpdCtx, clientCh, 200, 1),
				act(activity.Send, 0, httpdCtx, webApp, 300, 1),
				act(activity.Receive, 0, javaCtx, webApp, 300, 1),
				act(activity.Send, 0, javaCtx, webApp.Reverse(), 700, 1),
				act(activity.Receive, 0, httpdCtx, webApp.Reverse(), 700, 1),
				act(activity.End, 0, httpdCtx, clientCh.Reverse(), 700, 1),
			},
			wantTypes: []activity.Type{
				activity.Begin, activity.Send, activity.Receive,
				activity.Send, activity.Receive, activity.End,
			},
			wantFinished: 1,
		},
		{
			name: "identical timestamps across hosts",
			// Two one-hop requests on two hosts with every record at the
			// same instant as its peer: candidate selection may never
			// deliver a RECEIVE before its SEND even though timestamps
			// give no ordering information.
			trace: []*activity.Activity{
				act(activity.Begin, 1*time.Millisecond, httpdCtx, clientCh, 100, 1),
				act(activity.Send, 2*time.Millisecond, httpdCtx, webApp, 50, 1),
				act(activity.Receive, 2*time.Millisecond, javaCtx, webApp, 50, 1),
				act(activity.Send, 3*time.Millisecond, javaCtx, webApp.Reverse(), 60, 1),
				act(activity.Receive, 3*time.Millisecond, httpdCtx, webApp.Reverse(), 60, 1),
				act(activity.End, 4*time.Millisecond, httpdCtx, clientCh.Reverse(), 60, 1),
			},
			wantTypes: []activity.Type{
				activity.Begin, activity.Send, activity.Receive,
				activity.Send, activity.Receive, activity.End,
			},
			wantFinished: 1,
		},
		{
			name: "single activity flow begin only",
			// A flow consisting of just a BEGIN: a CAG opens and never
			// finishes; nothing may block or loop.
			trace: []*activity.Activity{
				act(activity.Begin, 0, httpdCtx, clientCh, 100, 1),
			},
			wantTypes:    []activity.Type{activity.Begin},
			wantFinished: 0,
		},
		{
			name: "single activity flow orphan receive",
			// A lone RECEIVE whose sender is untraced: is_noise must drop
			// it (no candidate emitted) instead of force-popping.
			trace: []*activity.Activity{
				act(activity.Receive, 0, httpdCtx,
					activity.Channel{Src: activity.EP("10.9.9.9", 5000), Dst: activity.EP("10.0.0.1", 80)},
					64, -1),
			},
			wantTypes: nil,
			wantNoise: 1,
		},
		{
			name: "orphan receive from traced exhausted sender",
			// The sender host is traced but its stream never produces the
			// SEND (activity loss). Once the sender is exhausted the
			// RECEIVE is droppable as noise — and the lost-send request on
			// the sender still correlates its own BEGIN.
			trace: []*activity.Activity{
				act(activity.Begin, 0, httpdCtx, clientCh, 100, 1),
				act(activity.Receive, 1*time.Millisecond, javaCtx, webApp2, 300, 1),
			},
			wantTypes: []activity.Type{activity.Begin},
			wantNoise: 1,
		},
		{
			name: "zero size send and receive",
			// Zero-byte messages are degenerate: the engine's Fig. 4
			// countdown can never consume a 0-byte SEND (remaining <= 0
			// means "nothing pending"), so the hop is unmatchable. The
			// ranker must classify both RECEIVEs as noise once their
			// senders are exhausted — not let the 0-size RECEIVE jump the
			// queue through a vacuous Rule 1 match — and the request
			// still finishes as BEGIN→SEND→END on the entry node.
			trace: []*activity.Activity{
				act(activity.Begin, 0, httpdCtx, clientCh, 100, 1),
				act(activity.Send, 1*time.Millisecond, httpdCtx, webApp, 0, 1),
				act(activity.Receive, 2*time.Millisecond, javaCtx, webApp, 0, 1),
				act(activity.Send, 3*time.Millisecond, javaCtx, webApp.Reverse(), 10, 1),
				act(activity.Receive, 4*time.Millisecond, httpdCtx, webApp.Reverse(), 10, 1),
				act(activity.End, 5*time.Millisecond, httpdCtx, clientCh.Reverse(), 10, 1),
			},
			wantTypes: []activity.Type{
				activity.Begin, activity.Send, activity.Send, activity.End,
			},
			wantFinished: 1,
			wantNoise:    2,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, window := range []time.Duration{time.Millisecond, time.Second} {
				eng := engine.New()
				r := NewFromTrace(Config{Window: window, IPToHost: ipToHost}, eng, tc.trace)
				var types []activity.Type
				for {
					a := r.Rank()
					if a == nil {
						break
					}
					types = append(types, a.Type)
					eng.Handle(a)
				}
				if fmt.Sprint(types) != fmt.Sprint(tc.wantTypes) {
					t.Fatalf("window %v: candidate order %v, want %v", window, types, tc.wantTypes)
				}
				if got := eng.Stats().Finished; got != tc.wantFinished {
					t.Fatalf("window %v: finished %d, want %d", window, got, tc.wantFinished)
				}
				if got := r.Stats().NoiseDropped; got != tc.wantNoise {
					t.Fatalf("window %v: noise dropped %d, want %d", window, got, tc.wantNoise)
				}
				if got := r.Stats().ForcedPops; got != tc.wantForced {
					t.Fatalf("window %v: forced pops %d, want %d", window, got, tc.wantForced)
				}
			}
		})
	}
}

// TestRankZeroDurationTieIsDeterministic re-ranks an all-ties trace many
// times: the candidate sequence must never vary (Rule 2 breaks timestamp
// ties by host order, not map iteration order).
func TestRankZeroDurationTieIsDeterministic(t *testing.T) {
	trace := []*activity.Activity{
		act(activity.Begin, 0, httpdCtx, clientCh, 100, 1),
		act(activity.Send, 0, httpdCtx, webApp, 50, 1),
		act(activity.Receive, 0, javaCtx, webApp, 50, 1),
		act(activity.Send, 0, javaCtx, appDB, 20, 1),
		act(activity.Receive, 0, mysqlCtx, appDB, 20, 1),
		act(activity.Send, 0, mysqlCtx, appDB.Reverse(), 30, 1),
		act(activity.Receive, 0, javaCtx, appDB.Reverse(), 30, 1),
		act(activity.Send, 0, javaCtx, webApp.Reverse(), 60, 1),
		act(activity.Receive, 0, httpdCtx, webApp.Reverse(), 60, 1),
		act(activity.End, 0, httpdCtx, clientCh.Reverse(), 60, 1),
	}
	var first string
	for i := 0; i < 20; i++ {
		eng := engine.New()
		r := NewFromTrace(Config{Window: time.Millisecond, IPToHost: ipToHost}, eng, trace)
		var got []*activity.Activity
		for {
			a := r.Rank()
			if a == nil {
				break
			}
			got = append(got, a)
			eng.Handle(a)
		}
		s := fmt.Sprint(got)
		if i == 0 {
			first = s
			if n := eng.Stats().Finished; n != 1 {
				t.Fatalf("finished %d, want 1", n)
			}
			continue
		}
		if s != first {
			t.Fatalf("run %d ranked differently:\n%s\nvs\n%s", i, s, first)
		}
	}
}
