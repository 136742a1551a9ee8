package live

import (
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"weak"

	"repro/internal/analysis"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/rubis"
)

// oracle is the retained-graph reference for the monitor's incremental
// accounting: it buckets CAGs by END timestamp, keeps every graph of the
// current interval per signature, and at close aggregates each
// signature's members with cag.Aggregate and picks TopPattern by a scan
// over the sorted signatures. Baselines, the detector and the renderers
// are borrowed from an embedded exact-mode Monitor, whose current bucket
// only carries the interval start that diagnose reads.
type oracle struct {
	*Monitor
	graphs map[string][]*cag.Graph
}

func newOracle(cfg Config) *oracle {
	cfg.Sketched = false
	return &oracle{Monitor: NewMonitor(cfg)}
}

func (o *oracle) Ingest(g *cag.Graph) {
	m := o.Monitor
	end := g.End()
	if end == nil {
		return
	}
	t := end.Timestamp
	if m.ingested > 0 && t < m.lastEnd {
		m.outOfOrder++
	} else {
		m.lastEnd = t
	}
	iv := m.cfg.Interval
	q := t / iv
	if t%iv < 0 {
		q--
	}
	start := q * iv
	if m.cur == nil {
		o.open(start)
	}
	if t >= m.cur.start+iv {
		o.close()
		if gap := int((start-m.cur.start)/iv) - 1; gap > 0 {
			m.pendingSkipped += gap
			m.skippedEmpty += gap
		}
		o.open(start)
	}
	sig := cag.Signature(g)
	o.graphs[sig] = append(o.graphs[sig], g)
	m.ingested++
}

func (o *oracle) open(start time.Duration) {
	o.cur = o.newBucket(start)
	o.graphs = make(map[string][]*cag.Graph)
}

func (o *oracle) Flush() {
	if o.cur != nil {
		o.close()
	}
	o.cur = nil
}

func (o *oracle) close() {
	m := o.Monitor
	stat := IntervalStat{Index: m.index, Start: m.cur.start, SkippedEmpty: m.pendingSkipped}
	m.pendingSkipped = 0
	alertsBefore := len(m.alerts)
	sigs := make([]string, 0, len(o.graphs))
	for sig := range o.graphs {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	var latSum time.Duration
	topCount := 0
	for _, sig := range sigs {
		members := o.graphs[sig]
		stat.Requests += len(members)
		for _, g := range members {
			latSum += g.Latency()
		}
		if len(members) > topCount {
			topCount = len(members)
			stat.TopPattern = cag.PatternName(members[0])
		}
	}
	if stat.Requests > 0 {
		stat.MeanLatency = latSum / time.Duration(stat.Requests)
	}
	for _, sig := range sigs {
		members := o.graphs[sig]
		if len(members) < m.cfg.MinRequests {
			continue
		}
		avg, err := cag.Aggregate(members)
		if err != nil {
			panic(err)
		}
		m.diagnose(sig, reportOf(avg), len(members))
	}
	stat.Alerts = len(m.alerts) - alertsBefore
	m.history = append(m.history, stat)
	m.index++
	m.intervals++
}

// reportOf converts an average path into a PatternReport (share order as
// in analysis.Report).
func reportOf(avg *cag.AveragePath) *analysis.PatternReport {
	rep := &analysis.PatternReport{
		Name: avg.Name, Signature: avg.Signature, Count: avg.Count, MeanLatency: avg.MeanLatency,
	}
	cats, vals := avg.Percentages()
	for i, c := range cats {
		rep.Shares = append(rep.Shares, analysis.ComponentShare{
			Category: c, Mean: avg.Components[c], Percent: vals[i],
		})
	}
	return rep
}

// checkOracle feeds graphs to an exact monitor, an ample-capacity
// sketched monitor and the oracle, and requires all three to agree in
// Stats, Summary and HistoryTable.
func checkOracle(t testing.TB, cfg Config, graphs []*cag.Graph) {
	t.Helper()
	o := newOracle(cfg)
	for _, g := range graphs {
		o.Ingest(g)
	}
	o.Flush()
	for _, sketched := range []bool{false, true} {
		c := cfg
		c.Sketched, c.MaxPatterns = sketched, 256
		m := NewMonitor(c)
		for _, g := range graphs {
			m.Ingest(g)
		}
		m.Flush()
		if got, want := m.Stats(), o.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("sketched=%v: Stats differ from the oracle:\ngot  %+v\nwant %+v", sketched, got, want)
		}
		if got, want := m.Summary(), o.Summary(); got != want {
			t.Fatalf("sketched=%v: Summary differs from the oracle:\ngot:\n%s\nwant:\n%s", sketched, got, want)
		}
		if got, want := m.HistoryTable(), o.HistoryTable(); got != want {
			t.Fatalf("sketched=%v: HistoryTable differs from the oracle:\ngot:\n%s\nwant:\n%s", sketched, got, want)
		}
	}
}

// TestMonitorMatchesOracle runs the streams of TestMonitorSketchedMatchesExact
// and TestMonitorEndToEndWithFaultOnset through both monitor modes and
// the retained-graph oracle.
func TestMonitorMatchesOracle(t *testing.T) {
	checkOracle(t, twoPatternConfig, twoPatternStream(t))
	checkOracle(t, faultOnsetConfig, faultOnsetStream(t))
}

// FuzzMonitorMatchesOracle fuzzes END order, gaps and negative
// timestamps: every 3-byte step moves the END clock by a signed amount
// (0x7f jumps several intervals ahead), picks one of a few patterns and
// varies its hop latency.
func FuzzMonitorMatchesOracle(f *testing.F) {
	f.Add([]byte{0x80, 0, 0, 10, 1, 3, 10, 2, 200, 0xf0, 0, 9, 0x7f, 3, 1, 20, 1, 7})
	f.Add([]byte{0, 0, 0, 5, 0, 1, 5, 0, 2, 5, 0, 3, 5, 1, 4, 5, 1, 5, 5, 0, 250, 5, 0, 251})
	f.Add([]byte{0xc0, 0x7f, 2, 2, 0x7f, 3, 3, 0xff, 0, 4, 0x81, 1, 5, 6, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := -40 * time.Millisecond * time.Duration(len(data))
		var graphs []*cag.Graph
		for i := 0; i+3 <= len(data) && len(graphs) < 200; i += 3 {
			step, kind, lat := int8(data[i]), data[i+1], data[i+2]
			if step == 0x7f {
				at += 3 * time.Second
			} else {
				at += time.Duration(step) * 7 * time.Millisecond
			}
			hop := time.Duration(1+int(lat)) * 97 * time.Microsecond
			if kind%4 == 0 {
				graphs = append(graphs, soloGraph(t, at, hop, "solo", i))
				continue
			}
			// A kind-dependent back-tier hop splits the two-tier graphs
			// across patterns only by latency, so shares move and alert.
			graphs = append(graphs, buildGraph(t, at, time.Duration(kind%4)*time.Millisecond, hop, i))
		}
		checkOracle(t, Config{
			Interval:          500 * time.Millisecond,
			BaselineIntervals: 1,
			MinRequests:       2,
			Detector:          analysis.Detector{ThresholdPoints: 5},
		}, graphs)
	})
}

// TestMonitorKeepsNoGraph: a default monitor must not retain the CAGs it
// ingests. Every graph of one long interval is probed with a weak
// pointer, and all of them must read nil before the interval closes. A
// weak pointer, unlike a finalizer, accepts a graph that does not head
// its own allocation.
func TestMonitorKeepsNoGraph(t *testing.T) {
	m := NewMonitor(Config{Interval: time.Hour})
	probes := feedProbed(t, m)
	if got := m.Footprint().TrackedPatterns; got == 0 {
		t.Fatal("TrackedPatterns = 0 in an open exact-mode interval")
	}
	reachable := len(probes)
	deadline := time.Now().Add(10 * time.Second)
	for reachable > 0 && time.Now().Before(deadline) {
		runtime.GC()
		reachable = 0
		for _, p := range probes {
			if p.Value() != nil {
				reachable++
			}
		}
		if reachable > 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if reachable > 0 {
		t.Fatalf("%d of %d ingested graphs still reachable before Flush", reachable, len(probes))
	}
	m.Flush()
	if st := m.Stats(); st.Ingested != len(probes) || st.Intervals != 1 {
		t.Fatalf("ingested %d over %d intervals, want %d over 1", st.Ingested, st.Intervals, len(probes))
	}
}

// feedProbed correlates a small RUBiS run and ingests its graphs,
// returning a weak pointer to each. It holds no reference to any graph
// afterwards.
func feedProbed(t *testing.T, m *Monitor) []weak.Pointer[cag.Graph] {
	cfg := rubis.DefaultConfig(100)
	cfg.Scale = 0.01
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
	graphs := out.Graphs
	out.Graphs = nil
	if len(graphs) == 0 {
		t.Fatal("no graphs")
	}
	probes := make([]weak.Pointer[cag.Graph], len(graphs))
	for i := range graphs {
		probes[i] = weak.Make(graphs[i])
		m.Ingest(graphs[i])
		graphs[i] = nil
	}
	return probes
}

// BenchmarkMonitorIngest measures the monitor's per-graph cost over a
// fixed RUBiS graph stream (300 clients, scale 0.05, 2 s intervals):
// one fresh monitor per op, every graph ingested, then Flush. It reports
// allocs/graph and B/graph, which `make bench-allocs` gates.
func BenchmarkMonitorIngest(b *testing.B) {
	cfg := rubis.DefaultConfig(300)
	cfg.Scale = 0.05
	res, err := rubis.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	out, err := core.New(core.Options{
		Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: res.IPToHost,
	}).CorrelateTrace(res.Trace)
	if err != nil {
		b.Fatal(err)
	}
	graphs := out.Graphs
	for _, bc := range []struct {
		name     string
		sketched bool
	}{{"exact", false}, {"sketched", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := NewMonitor(Config{
					Interval: 2 * time.Second, BaselineIntervals: 2, MinRequests: 5, Sketched: bc.sketched,
				})
				for _, g := range graphs {
					m.Ingest(g)
				}
				m.Flush()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N * len(graphs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/graph")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/graph")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/graph")
		})
	}
}
