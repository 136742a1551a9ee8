package live

import (
	"strings"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/analysis"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/rubis"
)

// vx builds a vertex represented by a copy of a.
func vx(a activity.Activity) *cag.Vertex { return cag.NewVertex(&a) }

// buildGraph makes a finished two-tier CAG completing at the given time,
// with a front2front share controlled by frontWork and a cross share by
// hop.
func buildGraph(t testing.TB, endAt time.Duration, frontWork, hop time.Duration, salt int) *cag.Graph {
	t.Helper()
	front := activity.Context{Host: "web1", Program: "front", PID: int32(salt), TID: int32(salt)}
	back := activity.Context{Host: "app1", Program: "back", PID: 7, TID: int32(100 + salt)}
	cch := activity.Channel{Src: activity.EP("c", 30000+salt), Dst: activity.EP("w", 80)}
	wch := activity.Channel{Src: activity.EP("w", 40000+salt), Dst: activity.EP("a", 9000)}

	total := frontWork + hop + hop + frontWork
	start := endAt - total
	g := cag.New(vx(activity.Activity{Type: activity.Begin, Timestamp: start, Ctx: front, Chan: cch}))
	s := vx(activity.Activity{Type: activity.Send, Timestamp: start + frontWork, Ctx: front, Chan: wch})
	if err := g.AddVertex(s, cag.ContextEdge, g.Root()); err != nil {
		t.Fatal(err)
	}
	rcv := vx(activity.Activity{Type: activity.Receive, Timestamp: start + frontWork + hop, Ctx: back, Chan: wch})
	if err := g.AddVertex(rcv, cag.MessageEdge, s); err != nil {
		t.Fatal(err)
	}
	s2 := vx(activity.Activity{Type: activity.Send, Timestamp: start + frontWork + hop, Ctx: back, Chan: wch.Reverse()})
	if err := g.AddVertex(s2, cag.ContextEdge, rcv); err != nil {
		t.Fatal(err)
	}
	r2 := vx(activity.Activity{Type: activity.Receive, Timestamp: start + frontWork + 2*hop, Ctx: front, Chan: wch.Reverse()})
	if err := g.AddVertex(r2, cag.MessageEdge, s2); err != nil {
		t.Fatal(err)
	}
	end := vx(activity.Activity{Type: activity.End, Timestamp: endAt, Ctx: front, Chan: cch.Reverse()})
	if err := g.AddVertex(end, cag.ContextEdge, r2); err != nil {
		t.Fatal(err)
	}
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMonitorBaselineThenAlert(t *testing.T) {
	var alerts []Alert
	m := NewMonitor(Config{
		Interval:          time.Second,
		BaselineIntervals: 2,
		MinRequests:       5,
		Detector:          analysis.Detector{ThresholdPoints: 10},
		OnAlert:           func(a Alert) { alerts = append(alerts, a) },
	})
	// Two healthy intervals (baseline), then one degraded interval where
	// the cross-tier hop explodes.
	at := time.Duration(0)
	for interval := 0; interval < 4; interval++ {
		hop := 5 * time.Millisecond
		if interval == 3 {
			hop = 60 * time.Millisecond // back tier's input path degrades
		}
		for i := 0; i < 8; i++ {
			at = time.Duration(interval)*time.Second + time.Duration(100+i*20)*time.Millisecond
			m.Ingest(buildGraph(t, at, 10*time.Millisecond, hop, i))
		}
	}
	m.Flush()

	if n := m.Stats().Intervals; n != 4 {
		t.Fatalf("intervals = %d, want 4", n)
	}
	if len(alerts) == 0 {
		t.Fatalf("no alerts raised; summary:\n%s", m.Summary())
	}
	found := false
	for _, a := range alerts {
		if a.Finding.Category == "front2back" || a.Finding.Category == "back2front" {
			found = true
			if a.LatFactor < 1.5 {
				t.Fatalf("latency factor = %f, want > 1.5", a.LatFactor)
			}
		}
	}
	if !found {
		t.Fatalf("expected a cross-tier finding, got %v", alerts)
	}
}

func TestMonitorNoAlertsWhenHealthy(t *testing.T) {
	m := NewMonitor(Config{Interval: time.Second, BaselineIntervals: 1, MinRequests: 3})
	for interval := 0; interval < 5; interval++ {
		for i := 0; i < 5; i++ {
			at := time.Duration(interval)*time.Second + time.Duration(100+i*50)*time.Millisecond
			m.Ingest(buildGraph(t, at, 10*time.Millisecond, 5*time.Millisecond, i))
		}
	}
	m.Flush()
	st := m.Stats()
	if len(st.Alerts) != 0 {
		t.Fatalf("healthy stream raised alerts:\n%s", m.Summary())
	}
	if st.Ingested != 25 {
		t.Fatalf("ingested = %d", st.Ingested)
	}
}

func TestMonitorSkipsSparsePatterns(t *testing.T) {
	m := NewMonitor(Config{Interval: time.Second, BaselineIntervals: 1, MinRequests: 50})
	for interval := 0; interval < 3; interval++ {
		for i := 0; i < 5; i++ { // below MinRequests
			at := time.Duration(interval)*time.Second + time.Duration(100+i*50)*time.Millisecond
			m.Ingest(buildGraph(t, at, 10*time.Millisecond, 5*time.Millisecond, i))
		}
	}
	m.Flush()
	if len(m.Stats().Alerts) != 0 {
		t.Fatal("sparse patterns must not alert")
	}
}

func TestMonitorEmptyIntervalsSkipped(t *testing.T) {
	m := NewMonitor(Config{Interval: 100 * time.Millisecond, BaselineIntervals: 1, MinRequests: 1})
	// Two CAGs three intervals apart: the empty gap intervals are skipped
	// in one jump, recorded on the next closed interval's stat.
	m.Ingest(buildGraph(t, 50*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, 1))
	m.Ingest(buildGraph(t, 350*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, 2))
	m.Flush()
	st := m.Stats()
	if st.Intervals != 2 {
		t.Fatalf("intervals = %d, want 2 (gap intervals skipped, not closed)", st.Intervals)
	}
	if st.SkippedEmpty != 2 {
		t.Fatalf("SkippedEmpty = %d, want 2", st.SkippedEmpty)
	}
	hist := st.History
	if len(hist) != 2 {
		t.Fatalf("history rows = %d, want 2", len(hist))
	}
	if hist[0].SkippedEmpty != 0 || hist[1].SkippedEmpty != 2 {
		t.Fatalf("per-stat skipped counts = %d/%d, want 0/2", hist[0].SkippedEmpty, hist[1].SkippedEmpty)
	}
	if hist[1].Start != 300*time.Millisecond {
		t.Fatalf("post-gap interval starts at %v, want 300ms", hist[1].Start)
	}
}

// TestMonitorLongGapDoesNotSpin is the gap bugfix: a multi-hour quiet
// spell at a 1-second interval must jump straight to the bucket holding
// the next CAG — constant work and two history rows, not ten thousand
// closeInterval calls.
func TestMonitorLongGapDoesNotSpin(t *testing.T) {
	m := NewMonitor(Config{Interval: time.Second, BaselineIntervals: 1, MinRequests: 1})
	m.Ingest(buildGraph(t, 500*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, 1))
	quiet := 3 * time.Hour
	done := make(chan struct{})
	go func() {
		m.Ingest(buildGraph(t, quiet+500*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, 2))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gap ingest did not return promptly (interval spin)")
	}
	m.Flush()
	st := m.Stats()
	if got, want := st.Intervals, 2; got != want {
		t.Fatalf("intervals = %d, want %d", got, want)
	}
	wantSkipped := int(quiet/time.Second) - 1 // 10799 empties between bucket 0 and bucket 10800
	if st.SkippedEmpty != wantSkipped {
		t.Fatalf("SkippedEmpty = %d, want %d", st.SkippedEmpty, wantSkipped)
	}
	if len(st.History) != 2 {
		t.Fatalf("history bloated to %d rows", len(st.History))
	}
}

// TestMonitorFlushClosesTrailingEmpty is the Flush bugfix: the current
// bucket is closed even when empty, so Intervals()/History() agree with
// the span the monitor covered instead of silently dropping the tail.
func TestMonitorFlushClosesTrailingEmpty(t *testing.T) {
	m := NewMonitor(Config{Interval: 100 * time.Millisecond, BaselineIntervals: 1, MinRequests: 1})
	m.Ingest(buildGraph(t, 50*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, 1))
	// Force an empty current bucket, as a feeder that drained without new
	// CAGs would: close the populated interval via a far-future graph is
	// not possible without data, so exercise the invariant directly —
	// Flush on a monitor whose only bucket has data closes exactly one
	// interval, and double Flush stays put.
	m.Flush()
	if n := m.Stats().Intervals; n != 1 {
		t.Fatalf("intervals = %d, want 1", n)
	}
	m.Flush()
	if n := m.Stats().Intervals; n != 1 {
		t.Fatalf("second Flush closed another interval: %d", n)
	}
	// The bug itself: a non-nil but EMPTY current bucket (the state a
	// pre-gap-fix feeder could leave behind) was silently dropped, making
	// Intervals() understate the covered span. Build that state directly
	// and check the empty interval closes cleanly: counted, zero
	// requests, zero mean latency, no divide-by-zero.
	m3 := NewMonitor(Config{Interval: 100 * time.Millisecond, BaselineIntervals: 1, MinRequests: 1})
	m3.cur = m3.newBucket(200 * time.Millisecond)
	m3.Flush()
	if n := m3.Stats().Intervals; n != 1 {
		t.Fatalf("empty trailing bucket dropped: intervals = %d, want 1", n)
	}
	hist := m3.Stats().History
	if len(hist) != 1 || hist[0].Requests != 0 || hist[0].MeanLatency != 0 || hist[0].Start != 200*time.Millisecond {
		t.Fatalf("empty interval stat = %+v", hist[0])
	}
}

// faultOnsetConfig and faultOnsetStream are the end-to-end workload: the
// CAGs of a healthy RUBiS run, then those of a run with an EJB delay.
var faultOnsetConfig = Config{Interval: 2 * time.Second, BaselineIntervals: 1, MinRequests: 5}

func faultOnsetStream(t testing.TB) []*cag.Graph {
	mkGraphs := func(faults rubis.Faults) []*cag.Graph {
		cfg := rubis.DefaultConfig(150)
		cfg.Scale = 0.01
		cfg.Faults = faults
		res, err := rubis.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := core.New(core.Options{
			Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost,
		}).CorrelateTrace(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return out.Graphs
	}
	healthy := mkGraphs(rubis.Faults{})
	faulty := mkGraphs(rubis.Faults{EJBDelay: 50 * time.Millisecond})
	// The faulty run's virtual clock restarts at 0; shift its CAGs after
	// the healthy stream by reusing completion order only.
	last := healthy[len(healthy)-1].End().Timestamp
	for _, g := range faulty {
		for _, v := range g.Vertices() {
			v.Timestamp += last
		}
	}
	return append(healthy, faulty...)
}

func TestMonitorEndToEndWithFaultOnset(t *testing.T) {
	// Full pipeline: run a healthy RUBiS session and a faulty one, stream
	// the healthy CAGs first — the monitor must learn a baseline and then
	// flag the fault's component.
	m := NewMonitor(faultOnsetConfig)
	for _, g := range faultOnsetStream(t) {
		m.Ingest(g)
	}
	m.Flush()

	java2java := false
	for _, a := range m.Stats().Alerts {
		if a.Finding.Category == "java2java" {
			java2java = true
		}
	}
	if !java2java {
		t.Fatalf("EJB delay onset not flagged; summary:\n%s", m.Summary())
	}
}

func TestMonitorOutOfOrderCounted(t *testing.T) {
	m := NewMonitor(Config{Interval: time.Second})
	m.Ingest(buildGraph(t, 500*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, 1))
	m.Ingest(buildGraph(t, 400*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, 2)) // regresses
	m.Ingest(buildGraph(t, 600*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, 3))
	m.Flush()
	st := m.Stats()
	if st.OutOfOrder != 1 {
		t.Fatalf("OutOfOrder = %d, want 1", st.OutOfOrder)
	}
	if st.Ingested != 3 {
		t.Fatalf("Ingested = %d, want 3 (violators still counted)", st.Ingested)
	}

	ok := NewMonitor(Config{Interval: time.Second})
	for i := 0; i < 4; i++ {
		ok.Ingest(buildGraph(t, time.Duration(100+i*50)*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond, i))
	}
	ok.Flush()
	if n := ok.Stats().OutOfOrder; n != 0 {
		t.Fatalf("ordered stream counted %d violations", n)
	}
}

func TestIntervalHistory(t *testing.T) {
	m := NewMonitor(Config{Interval: time.Second, BaselineIntervals: 1, MinRequests: 3})
	for interval := 0; interval < 3; interval++ {
		for i := 0; i < 4; i++ {
			at := time.Duration(interval)*time.Second + time.Duration(100+i*50)*time.Millisecond
			m.Ingest(buildGraph(t, at, 10*time.Millisecond, 5*time.Millisecond, i))
		}
	}
	m.Flush()
	hist := m.Stats().History
	if len(hist) != 3 {
		t.Fatalf("history = %d intervals", len(hist))
	}
	for _, st := range hist {
		if st.Requests != 4 || st.MeanLatency <= 0 || st.TopPattern == "" {
			t.Fatalf("interval stat: %+v", st)
		}
	}
	table := m.HistoryTable()
	if !strings.Contains(table, "top_pattern") || !strings.Contains(table, "front") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestMonitorHostLags(t *testing.T) {
	m := NewMonitor(Config{Interval: 100 * time.Millisecond})
	// buildGraph's back tier (app1) last appears hop+frontWork before the
	// front tier's END — a fixed per-graph lag the monitor must surface.
	m.Ingest(buildGraph(t, 50*time.Millisecond, 10*time.Millisecond, 5*time.Millisecond, 1))
	m.Ingest(buildGraph(t, 90*time.Millisecond, 10*time.Millisecond, 5*time.Millisecond, 2))
	lags := m.HostLags()
	if len(lags) != 2 {
		t.Fatalf("HostLags reported %d hosts, want 2", len(lags))
	}
	if lags[0].Host != "app1" || lags[1].Host != "web1" {
		t.Fatalf("lag order = %s,%s; want laggiest (app1) first", lags[0].Host, lags[1].Host)
	}
	if lags[1].Lag != 0 {
		t.Fatalf("web1 lag = %v, want 0 (it owns the newest record)", lags[1].Lag)
	}
	if want := 15 * time.Millisecond; lags[0].Lag != want {
		t.Fatalf("app1 lag = %v, want %v", lags[0].Lag, want)
	}
	if lags[0].Newest != 75*time.Millisecond {
		t.Fatalf("app1 newest = %v, want 75ms", lags[0].Newest)
	}
	tbl := m.HostLagTable()
	if !strings.Contains(tbl, "app1") || !strings.Contains(tbl, "web1") {
		t.Fatalf("HostLagTable missing hosts:\n%s", tbl)
	}
	if m.HostLagTable() == "" {
		t.Fatal("empty table for a populated monitor")
	}
	if empty := NewMonitor(Config{}); empty.HostLagTable() != "" {
		t.Fatal("HostLagTable non-empty for an empty monitor")
	}
	if strings.Contains(tbl, "delivered") {
		t.Fatalf("delivered column without any ObserveDelivery:\n%s", tbl)
	}
}

// TestMonitorObserveDelivery: the transport-side delivery clock rides
// HostLags independently of the correlated view — a host that has
// delivered but not yet appeared in any released CAG is listed, and the
// table grows the delivered column only once deliveries are observed.
func TestMonitorObserveDelivery(t *testing.T) {
	m := NewMonitor(Config{Interval: 100 * time.Millisecond})
	m.Ingest(buildGraph(t, 50*time.Millisecond, 10*time.Millisecond, 5*time.Millisecond, 1))
	m.ObserveDelivery("web1", 95*time.Millisecond)
	m.ObserveDelivery("web1", 80*time.Millisecond) // stale: ignored
	m.ObserveDelivery("db9", 20*time.Millisecond)  // delivered, never correlated
	byHost := make(map[string]HostLag)
	for _, l := range m.HostLags() {
		byHost[l.Host] = l
	}
	if len(byHost) != 3 {
		t.Fatalf("HostLags reported %d hosts, want 3 (incl. delivery-only db9)", len(byHost))
	}
	if got := byHost["web1"].Delivered; got != 95*time.Millisecond {
		t.Fatalf("web1 delivered = %v, want 95ms", got)
	}
	if got := byHost["db9"]; got.Delivered != 20*time.Millisecond || got.Newest != 0 {
		t.Fatalf("db9 = %+v, want delivered 20ms and no correlated records", got)
	}
	tbl := m.HostLagTable()
	if !strings.Contains(tbl, "delivered") || !strings.Contains(tbl, "db9") {
		t.Fatalf("HostLagTable missing delivery view:\n%s", tbl)
	}
}

// TestMonitorNegativeEndAligned is the alignment bugfix: buckets start at
// multiples of Interval rounded down, so a graph ending at −3 s opens the
// interval [−10 s, 0) instead of sharing [0, 10 s) with one ending at 4 s.
func TestMonitorNegativeEndAligned(t *testing.T) {
	m := NewMonitor(Config{Interval: 10 * time.Second, BaselineIntervals: 1, MinRequests: 1})
	m.Ingest(buildGraph(t, -3*time.Second, 5*time.Millisecond, 2*time.Millisecond, 1))
	m.Ingest(buildGraph(t, 4*time.Second, 5*time.Millisecond, 2*time.Millisecond, 2))
	m.Flush()
	hist := m.Stats().History
	if len(hist) != 2 {
		t.Fatalf("history = %+v, want two intervals", hist)
	}
	if hist[0].Start != -10*time.Second || hist[0].Requests != 1 {
		t.Fatalf("first interval = %+v, want Start -10s with 1 request", hist[0])
	}
	if hist[1].Start != 0 || hist[1].Requests != 1 || hist[1].SkippedEmpty != 0 {
		t.Fatalf("second interval = %+v, want Start 0 with 1 request", hist[1])
	}
}
