// Package groundtruth implements the accuracy methodology of §5.2. The
// paper modifies RUBiS to tag and propagate a globally unique request ID and
// then checks every inferred causal path against those tags; here the
// simulated testbed plays the role of modified RUBiS by tagging each logged
// activity with the request that caused it. A causal path is correct iff
// the CAG contains exactly the activities of one request — no false
// positives (foreign or extra activities) and no false negatives (missing
// activities).
package groundtruth

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/cag"
)

// Truth is the per-request expected activity sets.
type Truth struct {
	byRequest map[int64]map[int64]bool // reqID -> set of record IDs
}

// New returns an empty truth table.
func New() *Truth {
	return &Truth{byRequest: make(map[int64]map[int64]bool)}
}

// FromTrace builds the truth table from a tagged trace: every record with
// ReqID >= 0 belongs to that request's expected set. Noise records
// (ReqID < 0) are excluded by definition.
func FromTrace(trace []*activity.Activity) *Truth {
	t := New()
	for _, a := range trace {
		if a.ReqID >= 0 {
			t.Add(a.ReqID, a.ID)
		}
	}
	return t
}

// Add records that record recID belongs to request reqID.
func (t *Truth) Add(reqID, recID int64) {
	set := t.byRequest[reqID]
	if set == nil {
		set = make(map[int64]bool)
		t.byRequest[reqID] = set
	}
	set[recID] = true
}

// Requests returns the number of distinct logged requests.
func (t *Truth) Requests() int { return len(t.byRequest) }

// Verdict classifies one CAG against the truth.
type Verdict int

// Verdict values.
const (
	Correct  Verdict = iota + 1 // exactly one request's full activity set
	Mixed                       // activities of more than one request (false positive)
	Deformed                    // one request but missing or extra activities
	Orphan                      // no ground-truth activities at all (noise CAG)
)

// Judge classifies a single CAG.
func (t *Truth) Judge(g *cag.Graph) (Verdict, int64) {
	reqs := g.RequestIDs()
	switch len(reqs) {
	case 0:
		return Orphan, -1
	case 1:
	default:
		return Mixed, -1
	}
	req := reqs[0]
	want := t.byRequest[req]
	got := g.RecordIDs()
	if len(got) != len(want) {
		return Deformed, req
	}
	for _, id := range got {
		if !want[id] {
			return Deformed, req
		}
	}
	return Correct, req
}

// Report aggregates accuracy over a correlation run.
type Report struct {
	LoggedRequests int // requests present in the truth (denominator)
	CAGs           int // CAGs produced by the correlator
	CorrectPaths   int
	MixedPaths     int
	DeformedPaths  int
	OrphanPaths    int
	DuplicatePaths int // second CAG claiming an already-matched request
	MissingPaths   int // requests with no correct CAG
}

// PathAccuracy is the paper's metric: correct paths / all logged requests.
func (r Report) PathAccuracy() float64 {
	if r.LoggedRequests == 0 {
		return 1
	}
	return float64(r.CorrectPaths) / float64(r.LoggedRequests)
}

// FalsePositives counts CAGs that assert causality that did not exist.
func (r Report) FalsePositives() int { return r.MixedPaths + r.DeformedPaths + r.OrphanPaths }

// FalseNegatives counts requests whose true path was not produced.
func (r Report) FalseNegatives() int { return r.MissingPaths }

// String implements fmt.Stringer.
func (r Report) String() string {
	return fmt.Sprintf("accuracy=%.4f correct=%d/%d mixed=%d deformed=%d orphan=%d dup=%d missing=%d",
		r.PathAccuracy(), r.CorrectPaths, r.LoggedRequests, r.MixedPaths, r.DeformedPaths,
		r.OrphanPaths, r.DuplicatePaths, r.MissingPaths)
}

// Evaluate judges every CAG and aggregates the report.
func (t *Truth) Evaluate(graphs []*cag.Graph) Report {
	rep := Report{LoggedRequests: len(t.byRequest), CAGs: len(graphs)}
	matched := make(map[int64]bool)
	for _, g := range graphs {
		v, req := t.Judge(g)
		switch v {
		case Correct:
			if matched[req] {
				rep.DuplicatePaths++
				continue
			}
			matched[req] = true
			rep.CorrectPaths++
		case Mixed:
			rep.MixedPaths++
		case Deformed:
			rep.DeformedPaths++
		case Orphan:
			rep.OrphanPaths++
		}
	}
	rep.MissingPaths = rep.LoggedRequests - rep.CorrectPaths
	return rep
}
