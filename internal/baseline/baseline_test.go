package baseline

import (
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/core"
	"repro/internal/rubis"
)

func classifiedTrace(t *testing.T, mutate func(*rubis.Config)) (*rubis.Result, []*activity.Activity) {
	t.Helper()
	cfg := rubis.DefaultConfig(60)
	cfg.Scale = 0.01
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cls := activity.NewClassifier(rubis.EntryPort)
	classified := make([]*activity.Activity, len(res.Trace))
	for i, a := range res.Trace {
		cp := *a
		cp.Type = cls.Classify(a)
		classified[i] = &cp
	}
	return res, classified
}

func TestNaivePerfectClocksMostlyWorks(t *testing.T) {
	// With zero skew, global timestamp order is close to causal order, so
	// the naive approach should do reasonably well (it is not the clocks
	// that defeat it here, but SMP interleavings are absent too).
	res, trace := classifiedTrace(t, nil)
	out := Naive(trace)
	rep := res.Truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() < 0.5 {
		t.Fatalf("naive with perfect clocks collapsed: %v", rep)
	}
}

func TestNaiveDegradesUnderSkew(t *testing.T) {
	res, trace := classifiedTrace(t, func(c *rubis.Config) {
		c.Skew.MaxSkew = 500 * time.Millisecond
	})
	out := Naive(trace)
	rep := res.Truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() > 0.5 {
		t.Fatalf("naive should degrade badly under 500ms skew, got %v", rep)
	}
	// PreciseTracer on the same trace stays at 100%.
	precise, err := core.New(core.Options{
		Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost,
	}).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	prep := res.Truth.Evaluate(precise.Graphs)
	if prep.PathAccuracy() != 1.0 {
		t.Fatalf("precise tracer should stay at 100%%: %v", prep)
	}
}

func TestNestingReasonableWithPerfectClocks(t *testing.T) {
	// With synchronised clocks and light load the time-gap heuristics
	// mostly guess right — the probabilistic approach is useful, just not
	// precise.
	res, trace := classifiedTrace(t, nil)
	out := Nesting(trace, NestingConfig{})
	rep := res.Truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() < 0.8 {
		t.Fatalf("nesting collapsed even with perfect clocks: %v", rep)
	}
}

func TestNestingDegradesUnderSkew(t *testing.T) {
	// Cross-node timestamp ordering is the heuristic's foundation; skew
	// larger than the transit time breaks it while PreciseTracer's
	// rule-based ordering does not care.
	res, trace := classifiedTrace(t, func(c *rubis.Config) {
		c.Skew.MaxSkew = 500 * time.Millisecond
	})
	out := Nesting(trace, NestingConfig{})
	rep := res.Truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() >= 1.0 {
		t.Fatalf("nesting should be imprecise under skew: %v", rep)
	}
}

func TestNestingDropsWithoutContext(t *testing.T) {
	ctx := activity.Context{Host: "app1", Program: "java", PID: 1, TID: 1}
	ch := activity.Channel{Src: activity.EP("a", 1), Dst: activity.EP("b", 2)}
	out := Nesting([]*activity.Activity{
		{Type: activity.Send, Timestamp: time.Millisecond, Ctx: ctx, Chan: ch, Size: 10, ReqID: -1, MsgID: -1},
	}, NestingConfig{})
	if out.Dropped != 1 || len(out.Graphs) != 0 {
		t.Fatalf("dropped=%d graphs=%d", out.Dropped, len(out.Graphs))
	}
}

func TestNestingContextGapTimeout(t *testing.T) {
	httpd := activity.Context{Host: "web1", Program: "httpd", PID: 1, TID: 1}
	cch := activity.Channel{Src: activity.EP("c", 9), Dst: activity.EP("w", 80)}
	wch := activity.Channel{Src: activity.EP("w", 7), Dst: activity.EP("a", 8009)}
	trace := []*activity.Activity{
		{Type: activity.Begin, Timestamp: 0, Ctx: httpd, Chan: cch, Size: 10, ReqID: 1, MsgID: -1},
		// SEND 10 seconds later: beyond the 500ms context gap.
		{Type: activity.Send, Timestamp: 10 * time.Second, Ctx: httpd, Chan: wch, Size: 10, ReqID: 1, MsgID: -1},
	}
	out := Nesting(trace, NestingConfig{})
	if out.Dropped != 1 {
		t.Fatalf("expected the stale SEND to be dropped, got %+v", out)
	}
}

func TestBaselineCorrelationTimesMeasured(t *testing.T) {
	_, trace := classifiedTrace(t, nil)
	if Naive(trace).CorrelationTime <= 0 {
		t.Fatal("naive time not measured")
	}
	if Nesting(trace, NestingConfig{}).CorrelationTime <= 0 {
		t.Fatal("nesting time not measured")
	}
}
