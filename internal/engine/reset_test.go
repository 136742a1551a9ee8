package engine

import (
	"testing"

	"repro/internal/activity"
	"repro/internal/cag"
)

// A SEND left pending when a pass ends must not match a RECEIVE in the
// next pass, even though the RECEIVE's channel takes the same ordinal and
// so the same mmap slot as before.
func TestResetForgetsPendingSend(t *testing.T) {
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	send := act(activity.Send, 2, httpdCtx, webApp, 300, 1)
	e.Handle(send)
	before := e.Intern(send)
	if e.PendingBytes(before.Chan) != 300 {
		t.Fatal("pass 1 left no pending SEND to forget")
	}

	e.Reset()
	e.Handle(act(activity.Begin, 10, httpdCtx, clientCh, 200, 2))
	recv := act(activity.Receive, 12, javaCtx, webApp, 300, 1)
	if o := e.Intern(recv); o.Chan != before.Chan {
		t.Fatalf("pass 2 gave the channel ordinal %d, pass 1 gave %d: the test no longer reuses the slot", o.Chan, before.Chan)
	}
	e.Handle(recv)
	st := e.Stats()
	if st.DiscardedReceives != 1 || st.Receives != 0 || st.PartialReceives != 0 {
		t.Fatalf("RECEIVE matched a SEND from before Reset: %+v", st)
	}
	if e.ResidentVertices() != 1 {
		t.Fatalf("resident = %d, want only pass 2's BEGIN", e.ResidentVertices())
	}
}

// An END whose context had a vertex only in the previous pass has no
// context parent in this one.
func TestResetForgetsContext(t *testing.T) {
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.Send, 2, httpdCtx, webApp, 300, 1))

	e.Reset()
	e.Handle(act(activity.End, 12, httpdCtx, clientCh.Reverse(), 100, 1))
	e.Handle(act(activity.Send, 13, httpdCtx, webApp, 300, 1))
	st := e.Stats()
	if st.DiscardedEnds != 1 || st.DiscardedSends != 1 || st.Finished != 0 {
		t.Fatalf("records attached to a context vertex from before Reset: %+v", st)
	}
	if len(e.Outputs()) != 0 || e.ResidentVertices() != 0 {
		t.Fatalf("outputs = %d, resident = %d after a pass of orphans", len(e.Outputs()), e.ResidentVertices())
	}
}

// Pass 1's graphs survive a Reset and a second pass that carves its
// vertices from the rest of the same chunk: the chunk outlives Reset, but
// no vertex is handed out twice.
func TestResetKeepsHandedOutGraphs(t *testing.T) {
	e := New()
	feed(t, e, simpleRequest(0, 1))
	feed(t, e, simpleRequest(30, 2))
	pass1 := e.Outputs()
	var want []string
	for _, g := range pass1 {
		want = append(want, cag.Dump(g))
	}
	left := len(e.chunk)
	if len(want) != 2 || left == 0 || left > vertexChunk-20 {
		t.Fatalf("fixture: %d graphs, %d vertices left in the chunk; want 2 graphs and a part-used chunk", len(want), left)
	}

	e.Reset()
	if len(e.chunk) != left {
		t.Fatalf("Reset left %d vertices of the chunk, want %d", len(e.chunk), left)
	}
	feed(t, e, simpleRequest(60, 3))
	feed(t, e, simpleRequest(90, 4))
	if len(e.Outputs()) != 2 || len(e.chunk) != left-20 {
		t.Fatalf("pass 2: %d graphs, %d vertices left; want 2 graphs carved from the same chunk", len(e.Outputs()), len(e.chunk))
	}
	for i, g := range pass1 {
		if got := cag.Dump(g); got != want[i] {
			t.Fatalf("pass-1 graph %d changed under pass 2:\nbefore\n%s\nafter\n%s", i, want[i], got)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("pass-1 graph %d: %v", i, err)
		}
	}
}

// Intern's memo of the last keys does not outlive Reset: pass 2's first
// record takes ordinal 0 for both keys, although pass 1 ended on the
// same keys under ordinal 1.
func TestResetForgetsInternMemo(t *testing.T) {
	e := New()
	e.Intern(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	send := act(activity.Send, 2, javaCtx, webApp, 300, 1)
	if o := e.Intern(send); o != (Ords{Chan: 1, Ctx: 1}) {
		t.Fatalf("fixture: pass 1 gave %+v, want ordinal 1 for both keys", o)
	}
	if o := e.Intern(send); o != (Ords{Chan: 1, Ctx: 1}) {
		t.Fatalf("repeated keys gave %+v, want the same ordinals", o)
	}
	e.Reset()
	if o := e.Intern(send); o != (Ords{}) {
		t.Fatalf("first record after Reset got %+v, want ordinal 0 for both keys", o)
	}
	if o, ok := e.Lookup(send); !ok || o != (Ords{}) {
		t.Fatalf("Lookup after Reset: %+v %v", o, ok)
	}
}
