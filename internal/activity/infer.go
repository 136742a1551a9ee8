package activity

// InferIPToHost reconstructs the traced-node address map from a trace: a
// SEND logged by host H departs from one of H's addresses, and a RECEIVE
// logged by H arrives at one of H's addresses. This lets the offline tools
// consume a bare TCP_TRACE log without a topology file.
func InferIPToHost(trace []*Activity) map[string]string {
	m := make(map[string]string)
	for _, a := range trace {
		NoteIPOwner(m, a)
	}
	return m
}

// NoteIPOwner records in m that a's own end of its channel belongs to
// a's host.
func NoteIPOwner(m map[string]string, a *Activity) {
	switch a.Type {
	case Send, End:
		m[Syms.Name(a.Chan.Src.IP)] = a.Ctx.Host
	case Receive, Begin:
		m[Syms.Name(a.Chan.Dst.IP)] = a.Ctx.Host
	case MaxType:
		// Sentinel; ignore.
	}
}
