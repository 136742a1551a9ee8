package core

import (
	"fmt"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
)

// Session is the online (push-mode) correlator: activities are pushed as
// the collection agents deliver them, CAGs come out while the service is
// still running. The offline CorrelateTrace is literally a Session fed
// all at once (see replay.go).
//
//	s, _ := core.NewSession(opts, []string{"web1", "app1", "db1"})
//	s.Push(a)        // repeatedly, per arriving record
//	s.Drain()        // emit every CAG currently decidable
//	s.Close()        // end of streams; flush the remainder
//
// Safety: the session never *guesses* — a flow component is only
// correlated once no open stream could still extend it: every host owning
// one of its channel endpoints has closed (CloseHost), or — with a seal
// horizon configured — has advanced its stream past the component's
// horizon. That is the same no-false-positives guarantee as offline mode;
// the cost is that CAG emission lags input by the slower of host closure
// and the configured horizons. Always-on deployments therefore configure
// Options.SealAfter (plus per-host overrides in Options.SealAfterByHost
// for chronically lagging agents) and feed Heartbeat so idle hosts do not
// stall the ordered output.
//
// Every mode runs the same streaming engine (stream.go); Options.Workers
// only bounds how many goroutines correlate at a barrier. That includes
// PaperExactNoise: the Fig. 5 predicate's pending-SEND question is
// answered per shard, which channel-closure sharding makes equal to the
// global answer (see ranker.matchingSendVisible for the invariant), so
// exact-mode sessions get horizons, heartbeats, forced seals and
// PushBatch like any other.
//
// Sessions are not safe for concurrent use: Push/Drain/CloseHost/
// Heartbeat/Close must be called from one goroutine (with Workers > 1,
// the barriers parallelise internally).
type Session struct {
	impl *streamSession
}

// NewSession opens an online session for the given traced hosts. Every
// host that will produce activities must be declared up front (the
// completion watermarks track per-host progress, and the safety logic
// needs to know which streams exist).
func NewSession(opts Options, hosts []string) (*Session, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(opts.EntryPorts) == 0 {
		return nil, ErrNoEntryPorts
	}
	if opts.Window <= 0 {
		opts.Window = 10 * time.Millisecond
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: session needs at least one host")
	}
	return &Session{impl: newStreamSession(opts, hosts)}, nil
}

// Push feeds one raw TCP_TRACE record (classification happens inside).
// Records of one host must arrive in that host's local-clock order; hosts
// interleave arbitrarily.
func (s *Session) Push(a *activity.Activity) error { return s.impl.Push(a) }

// PushBatch feeds a run of raw records in order, as one call — the shape
// a decoded transport frame arrives in. It is equivalent to calling Push
// per record: application stops at the first error, which is returned,
// and the records before it stay applied. The session copies what it
// keeps, so the caller may recycle the batch's records afterwards
// (activity.ReleaseRecord for pooled decode-side records).
func (s *Session) PushBatch(batch []*activity.Activity) error { return s.impl.PushBatch(batch) }

// Drain runs the correlator until no further candidate is safely
// decidable, returning the number of activities processed this call: it
// correlates the components force-sealed since the last Drain (in
// continuous mode, by the push or heartbeat that carried the activity
// clock past their horizon) and releases the graphs the watermark
// permits. Last, it correlates the aged records of never-idle components
// that hold no BEGIN (see Options.SealAfter). Seals never wait for a
// Drain, so the cadence decides only when graphs leave, not which graphs
// exist.
func (s *Session) Drain() int { return s.impl.Drain() }

// CloseHost marks one host's stream complete (its agent shut down). This
// is what seals components absent a horizon: a flow component whose every
// contributing host has closed can no longer grow, and CloseHost
// correlates it before it returns. It releases nothing; the next Drain or
// Close does.
func (s *Session) CloseHost(host string) error { return s.impl.CloseHost(host) }

// Heartbeat records a liveness assertion from one host's agent: the host
// is alive and will never deliver an activity with a timestamp older
// than ts. It advances the watermark past quiet-but-healthy streams —
// without it, an idle host with no horizon holds back every emission,
// and an idle host with a long horizon delays them by that horizon. A
// heartbeat also advances the activity clock that seal horizons measure
// against, so correlation keeps flowing through traffic lulls: a
// component the new clock ages past its horizon is sealed at once, and a
// later record on one of its connections starts a fresh component. Stale
// assertions (ts older than the host's newest record) are ignored.
//
// Like pushed timestamps, heartbeats are activity-time, never wall
// clock: replaying the same push/heartbeat/drain sequence reproduces the
// same output.
func (s *Session) Heartbeat(host string, ts time.Duration) error { return s.impl.Heartbeat(host, ts) }

// Close marks every stream complete, drains the remainder and returns the
// final result. Closing twice returns the same result.
func (s *Session) Close() *Result { return s.impl.Close() }

// AddSink appends one sink to the session's emission chain (see
// Options.Sinks). It must be called before the first Push: the chain is
// not synchronized against in-flight emission. Registering any sink
// switches the session to streaming — Result.Graphs stays empty.
func (s *Session) AddSink(sink GraphSink) {
	s.impl.sinks = append(s.impl.sinks, sink)
}

// Graphs returns the CAGs completed so far (when not streaming to
// sinks).
func (s *Session) Graphs() []*cag.Graph { return s.impl.emitted }

// Pending returns the number of activities buffered but not yet
// correlated by a finished shard.
func (s *Session) Pending() int { return s.impl.pendingActs }
