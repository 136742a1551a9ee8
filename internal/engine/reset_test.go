package engine

import (
	"testing"

	"repro/internal/activity"
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
