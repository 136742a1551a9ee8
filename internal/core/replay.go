package core

import (
	"sort"
	"time"

	"repro/internal/activity"
)

// Offline correlation is a deterministic replay into the streaming
// engine: push every activity, close every host, drain. That makes the
// watermark-based session the single implementation of the pipeline —
// the offline paths add no correlation logic of their own, so batch and
// online results cannot drift apart (they ARE the same code).
//
// Determinism: the engine's output depends only on each host's record
// order (components buffer per host; cross-host interleaving never
// reaches the per-component rankers) plus, in continuous mode, on the
// activity clock the merged stream advances, which decides the forced
// seals. The replay preserves the input's per-host order, so the same
// input always reproduces the same output — including the forced seals
// and splits a continuous deployment would have produced. Where the
// drains fall decides only when graphs leave and, because prunes are
// scheduled at dispatch, the LateLinks count and the late flags; the
// fixed cadence keeps those reproducible too.

// replayDrainEvery is the fixed drain cadence of a continuous-mode
// replay (records between drains): it bounds what the replay holds, as
// a continuous deployment's drains do. Close-driven replays drain only
// at the end — mid-replay drains would be pure overhead, since nothing
// seals before the hosts close.
const replayDrainEvery = 1024

// replayTrace correlates a merged, classified-on-the-fly trace by
// replaying it through the streaming engine in trace order.
func (c *Correlator) replayTrace(trace []*activity.Activity) *Result {
	start := time.Now()
	hostSet := make(map[string]struct{})
	for _, a := range trace {
		hostSet[a.Ctx.Host] = struct{}{}
	}
	if len(hostSet) == 0 {
		return &Result{Activities: len(trace), CorrelationTime: time.Since(start)}
	}
	hosts := make([]string, 0, len(hostSet))
	for h := range hostSet {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)

	s := newSession(c.opts, hosts)
	cls := s.cls
	every := 0
	if c.opts.continuousConfigured() {
		every = replayDrainEvery
	}
	// Every host closes at the end (finishReplay): a close-driven replay
	// correlates everything at Close, as one batch, and a continuous one
	// keeps its seal horizons — closing a host early would shrink them
	// mid-replay and change which seals are forced.
	for i, a := range trace {
		cp := s.copyRec(a)
		cp.Type = cls.Classify(a)
		s.replayPush(cp)
		if every > 0 && (i+1)%every == 0 {
			s.Drain()
		}
	}
	return c.finishReplay(s, len(trace), start)
}

// finishReplay ends every stream (Close seals and drains the remainder)
// and normalises the Result's replay-wide accounting (the engine's own
// CorrelationTime only covers time blocked on shard work; a batch caller
// cares about the whole pass, partition included — the quantity
// Fig. 9/10/14 plot).
func (c *Correlator) finishReplay(s *Session, total int, start time.Time) *Result {
	res := s.Close()
	res.Activities = total
	res.CorrelationTime = time.Since(start)
	return res
}
