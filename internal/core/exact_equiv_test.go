package core

import (
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/engine"
	"repro/internal/ranker"
	"repro/internal/rubis"
)

// drive runs a fresh ranker+engine pair to exhaustion over per-node
// sources — the paper's sequential correlator as one global pass. It runs
// correlatePass, as every sealed flow component of the streaming engine
// does, so the two cannot drift apart.
func (c *Correlator) drive(sources []ranker.Source) *engine.Engine {
	eng := engine.New()
	correlatePass(ranker.New(c.opts.rankerConfig(), eng, nil), eng, sources)
	return eng
}

// globalExactPass reimplements the retired globalSession inline: buffer
// the whole classified trace per host, then run ONE ranker+engine over
// all hosts' sources in declared host order — the Fig. 5 is_noise
// predicate consulting one global buffer. It exists only as the
// reference the sharded exact mode is held to, so the byte-identity
// proof survives in-repo after the pre-refactor golden dumps are gone.
func globalExactPass(res *rubis.Result, hosts []string) *Result {
	opts := options(res)
	opts.PaperExactNoise = true
	cls := activity.NewClassifier(opts.EntryPorts...)
	perHost := make(map[string][]*activity.Activity, len(hosts))
	n := 0
	for _, a := range arrivalOrder(res.Trace) {
		cp := *a
		cp.Type = cls.Classify(a)
		perHost[cp.Ctx.Host] = append(perHost[cp.Ctx.Host], &cp)
		n++
	}
	sources := make([]ranker.Source, 0, len(hosts))
	for _, h := range hosts {
		sources = append(sources, ranker.NewSliceSource(h, perHost[h]))
	}
	eng := New(opts).drive(sources)
	return &Result{Graphs: eng.Outputs(), Activities: n}
}

// TestExactModeMatchesGlobalPass is the standing equivalence proof for
// the shard-aware Fig. 5 predicate: the one streaming engine — at every
// pool size, with and without a seal horizon, online and offline — must
// reproduce the historical global-buffer pass graph-for-graph. The
// fixture family keeps noise sessions declared but inert, where the
// global pass's shared-window semantics and the shard-local windows
// provably coincide (see AblationPaperExactNoise for where they differ
// by design).
func TestExactModeMatchesGlobalPass(t *testing.T) {
	res := fastRun(t, 40, func(c *rubis.Config) { c.NoiseSessions = 6 })
	hosts := hostsOf(res)
	want := globalExactPass(res, hosts)
	if len(want.Graphs) == 0 {
		t.Fatal("global reference pass produced no graphs")
	}

	opts := options(res)
	opts.PaperExactNoise = true
	off, err := New(opts).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraphs(t, "offline", want, off)
	if off.Shards == 0 {
		t.Fatal("offline exact pass did not shard")
	}

	for _, v := range []struct {
		name    string
		workers int
		seal    time.Duration
	}{
		{"w1", 1, 0},
		{"w4", 4, 0},
		{"w1-seal", 1, time.Second},
		{"w4-seal", 4, time.Second},
	} {
		sopts := opts
		sopts.Workers = v.workers
		sopts.SealAfter = v.seal
		sess, err := NewSession(sopts, hosts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		for i, a := range arrivalOrder(res.Trace) {
			if err := sess.Push(a); err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			if (i+1)%256 == 0 {
				sess.Drain()
			}
		}
		got := sess.Close()
		assertSameGraphs(t, v.name, want, got)
		if got.Shards == 0 {
			t.Fatalf("%s: exact session did not shard", v.name)
		}
	}
}
