package activity

// Classifier implements the §3.1 transformation from raw TCP_TRACE records
// to typed activities: "the RECEIVE activity from a client to the web
// server's port 80 means the START of a request, and the SEND activity in
// the same connection with opposite direction means the STOP of a request".
//
// Entry ports are the externally visible service ports of the first tier
// (the deployment's request frontier). A RECEIVE whose destination port is
// an entry port becomes BEGIN; a SEND whose source port is an entry port
// becomes END. All other SEND/RECEIVE records pass through unchanged.
type Classifier struct {
	entryPorts map[int]bool
}

// NewClassifier builds a classifier for the given entry ports (e.g. 80).
func NewClassifier(entryPorts ...int) *Classifier {
	m := make(map[int]bool, len(entryPorts))
	for _, p := range entryPorts {
		m[p] = true
	}
	return &Classifier{entryPorts: m}
}

// Classify returns the activity type a raw record should carry. It is a
// pure function of the record's type and channel.
func (c *Classifier) Classify(a *Activity) Type {
	switch a.Type {
	case Receive:
		if c.entryPorts[int(a.Chan.Dst.Port)] {
			return Begin
		}
	case Send:
		if c.entryPorts[int(a.Chan.Src.Port)] {
			return End
		}
	case Begin, End, MaxType:
		// Already classified (round-tripped trace) — keep as-is.
	}
	return a.Type
}

// Apply rewrites a slice of raw records in place, classifying each one.
func (c *Classifier) Apply(as []*Activity) {
	for _, a := range as {
		a.Type = c.Classify(a)
	}
}

// EntryPorts returns a copy of the configured entry ports.
func (c *Classifier) EntryPorts() []int {
	out := make([]int, 0, len(c.entryPorts))
	for p := range c.entryPorts {
		out = append(out, p)
	}
	return out
}
