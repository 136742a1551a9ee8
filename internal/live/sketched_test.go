package live

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/analysis"
	"repro/internal/cag"
)

// soakScale multiplies the capacity test's long stream; make soak-short
// raises it to prove the footprint stays flat over a much longer run.
var soakScale = flag.Int("live.soakscale", 10, "sketched-capacity stream multiplier")

// soloGraph builds a minimal two-vertex BEGIN→END graph whose pattern
// is determined by prog — the cheap way to synthesize arbitrarily many
// distinct signatures.
func soloGraph(t testing.TB, endAt, latency time.Duration, prog string, salt int) *cag.Graph {
	t.Helper()
	ctx := activity.Context{Host: "web1", Program: prog, PID: int32(salt), TID: int32(salt)}
	ch := activity.Channel{Src: activity.EP("c", 30000+salt%1000), Dst: activity.EP("w", 80)}
	g := cag.New(vx(activity.Activity{Type: activity.Begin, Timestamp: endAt - latency, Ctx: ctx, Chan: ch}))
	end := vx(activity.Activity{Type: activity.End, Timestamp: endAt, Ctx: ctx, Chan: ch.Reverse()})
	if err := g.AddVertex(end, cag.ContextEdge, g.Root()); err != nil {
		t.Fatal(err)
	}
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g
}

// twoPatternConfig and twoPatternStream are the equivalence suites'
// synthetic workload: five 1 s intervals of a two-tier pattern whose hop
// degrades from the fourth interval on (alerts past the baseline), plus
// a second, sparser pattern with odd latencies to exercise the
// truncating integer divisions.
var twoPatternConfig = Config{
	Interval:          time.Second,
	BaselineIntervals: 2,
	MinRequests:       5,
	Detector:          analysis.Detector{ThresholdPoints: 10},
	MaxPatterns:       64,
}

func twoPatternStream(t testing.TB) []*cag.Graph {
	var graphs []*cag.Graph
	for interval := 0; interval < 5; interval++ {
		hop := 5 * time.Millisecond
		if interval >= 3 {
			hop = 60 * time.Millisecond
		}
		for i := 0; i < 8; i++ {
			at := time.Duration(interval)*time.Second + time.Duration(100+i*20)*time.Millisecond
			graphs = append(graphs, buildGraph(t, at, 10*time.Millisecond, hop, i))
			if i%3 == 0 {
				graphs = append(graphs, soloGraph(t, at+time.Millisecond, time.Duration(7+i)*time.Millisecond/3, "solo", i))
			}
		}
	}
	return graphs
}

// TestMonitorSketchedMatchesExact pins the sketched mode's equivalence
// oracle: with ample capacity (no evictions), the sketched monitor's
// history, summary and alerts are byte-identical to the exact monitor's
// on the same stream — the per-pattern accumulators reproduce the
// aggregate arithmetic exactly, and the top-pattern tie-break matches
// the exact scan.
func TestMonitorSketchedMatchesExact(t *testing.T) {
	feed := func(sketched bool) *Monitor {
		cfg := twoPatternConfig
		cfg.Sketched = sketched
		m := NewMonitor(cfg)
		for _, g := range twoPatternStream(t) {
			m.Ingest(g)
		}
		m.Flush()
		return m
	}
	exact, sketched := feed(false), feed(true)

	es, ss := exact.Stats(), sketched.Stats()
	if es.Ingested != ss.Ingested || es.Intervals != ss.Intervals || es.OutOfOrder != ss.OutOfOrder {
		t.Fatalf("counters differ: exact %+v sketched %+v", es, ss)
	}
	if len(es.History) != len(ss.History) {
		t.Fatalf("history rows: %d vs %d", len(es.History), len(ss.History))
	}
	for i := range es.History {
		if es.History[i] != ss.History[i] {
			t.Fatalf("interval %d differs:\nexact    %+v\nsketched %+v", i, es.History[i], ss.History[i])
		}
	}
	if len(es.Alerts) != len(ss.Alerts) {
		t.Fatalf("alerts: exact %d, sketched %d\nexact:\n%s\nsketched:\n%s",
			len(es.Alerts), len(ss.Alerts), exact.Summary(), sketched.Summary())
	}
	for i := range es.Alerts {
		e, s := es.Alerts[i], ss.Alerts[i]
		if e.Pattern != s.Pattern || e.Interval != s.Interval || e.Finding != s.Finding ||
			e.MeanLat != s.MeanLat || e.BaseLat != s.BaseLat || e.Requests != s.Requests {
			t.Fatalf("alert %d differs:\nexact    %+v\nsketched %+v", i, e, s)
		}
	}
	if et, st := exact.HistoryTable(), sketched.HistoryTable(); et != st {
		t.Fatalf("history tables differ:\nexact:\n%s\nsketched:\n%s", et, st)
	}
	if esum, ssum := exact.Summary(), sketched.Summary(); esum != ssum {
		t.Fatalf("summaries differ:\nexact:\n%s\nsketched:\n%s", esum, ssum)
	}
	// Only the sketched monitor carries lifetime quantiles.
	if exact.QuantileTable() != "" {
		t.Fatal("exact mode grew a quantile table")
	}
	if sketched.QuantileTable() == "" {
		t.Fatal("sketched mode missing its quantile table")
	}
}

// TestMonitorSketchedAlertsUnderEviction drives more patterns than the
// sketch tracks: the monitor must stay bounded and still alert on the
// dominant (heavy-hitter) pattern's degradation.
func TestMonitorSketchedAlertsUnderEviction(t *testing.T) {
	m := NewMonitor(Config{
		Interval:          time.Second,
		BaselineIntervals: 2,
		MinRequests:       5,
		Detector:          analysis.Detector{ThresholdPoints: 10},
		Sketched:          true,
		MaxPatterns:       8,
	})
	at := time.Duration(0)
	for interval := 0; interval < 5; interval++ {
		hop := 5 * time.Millisecond
		if interval >= 3 {
			hop = 60 * time.Millisecond
		}
		for i := 0; i < 10; i++ {
			at = time.Duration(interval)*time.Second + time.Duration(100+i*20)*time.Millisecond
			m.Ingest(buildGraph(t, at, 10*time.Millisecond, hop, i))
			// 30 one-off patterns per interval — almost 4× the capacity.
			for j := 0; j < 3; j++ {
				prog := fmt.Sprintf("noise%02d", (i*3+j)%30)
				m.Ingest(soloGraph(t, at+time.Duration(j+1)*time.Millisecond, 3*time.Millisecond, prog, i))
			}
		}
	}
	m.Flush()
	st := m.Stats()
	if len(st.Alerts) == 0 {
		t.Fatalf("heavy hitter's degradation missed under eviction:\n%s", m.Summary())
	}
	for _, a := range st.Alerts {
		if a.Pattern == "front>back>front" {
			return
		}
	}
	t.Fatalf("no alert on the dominant pattern: %+v", st.Alerts)
}

// TestMonitorSketchedCategoryCacheBounded feeds bound graphs over 500
// programs, one category each: exact mode caches every program pair's
// category name once, sketched mode keeps at most 4×MaxPatterns.
func TestMonitorSketchedCategoryCacheBounded(t *testing.T) {
	const maxPatterns = 16
	for _, sketched := range []bool{false, true} {
		m := NewMonitor(Config{Interval: time.Second, MinRequests: 1, Sketched: sketched, MaxPatterns: maxPatterns})
		for i := 0; i < 2000; i++ {
			g := soloGraph(t, time.Duration(i)*10*time.Millisecond, time.Millisecond, fmt.Sprintf("svc%04d", i%500), i%97)
			for j := 0; j < g.Len(); j++ {
				activity.Bind(g.Vertex(j).Activity)
			}
			m.Ingest(g)
		}
		m.Flush()
		got, want := len(m.catNames), 500
		if sketched {
			if got > 4*maxPatterns {
				t.Fatalf("sketched: %d cached category names, cap %d", got, 4*maxPatterns)
			}
		} else if got != want {
			t.Fatalf("exact: %d cached category names, want %d", got, want)
		}
	}
}

// TestMonitorSketchedCapacity is the bounded-memory gate (run longer by
// make soak-short via -live.soakscale): a stream soakScale× longer, with
// an open-ended pattern vocabulary, must leave every footprint dimension
// at its configured cap — flat, not proportional to the stream.
func TestMonitorSketchedCapacity(t *testing.T) {
	const maxPatterns = 16
	run := func(n int) (SketchFootprint, Stats) {
		m := NewMonitor(Config{
			Interval:    time.Second,
			MinRequests: 1,
			Sketched:    true,
			MaxPatterns: maxPatterns,
		})
		for i := 0; i < n; i++ {
			at := time.Duration(i) * 10 * time.Millisecond
			prog := fmt.Sprintf("svc%04d", i%500) // 500 distinct patterns
			lat := time.Duration(1+(i*37)%9000) * time.Microsecond
			m.Ingest(soloGraph(t, at, lat, prog, i%97))
		}
		m.Flush()
		return m.Footprint(), m.Stats()
	}
	base := 2000
	fpShort, _ := run(base)
	fpLong, stLong := run(base * *soakScale)

	if stLong.Ingested != base**soakScale {
		t.Fatalf("ingested = %d", stLong.Ingested)
	}
	check := func(name string, got, cap int) {
		t.Helper()
		if got > cap {
			t.Fatalf("%s = %d exceeds cap %d (footprint not bounded)", name, got, cap)
		}
	}
	check("TrackedPatterns", fpLong.TrackedPatterns, maxPatterns)
	check("Baselines", fpLong.Baselines, 2*maxPatterns)
	// Share categories: solo graphs have one category each, but the
	// category sketch is capped like the pattern sketch.
	check("ShareCategories", fpLong.ShareCategories, maxPatterns)
	// GK summaries grow O((1/ε)·log εN): allow 2× over a soakScale×
	// longer stream, nothing near linear.
	if fpLong.LatencyTuples > 2*fpShort.LatencyTuples+64 {
		t.Fatalf("latency sketch grew %d → %d over a %d× stream",
			fpShort.LatencyTuples, fpLong.LatencyTuples, *soakScale)
	}
	if fpLong.MaxShareTuples > 2*fpShort.MaxShareTuples+64 {
		t.Fatalf("share sketch grew %d → %d over a %d× stream",
			fpShort.MaxShareTuples, fpLong.MaxShareTuples, *soakScale)
	}
	t.Logf("footprint after %d: %+v; after %d: %+v", base, fpShort, base**soakScale, fpLong)
}
