package analysis

import (
	"strings"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
)

// vx builds a vertex represented by a copy of a.
func vx(a activity.Activity) *cag.Vertex { return cag.NewVertex(&a) }

// buildPath constructs a BEGIN -> SEND -> RECV -> ... -> END chain across
// the given (program, host) hops with fixed per-hop latency.
func buildPath(t *testing.T, hop time.Duration, salt int) *cag.Graph {
	t.Helper()
	httpd := activity.Context{Host: "web1", Program: "httpd", PID: int32(salt), TID: int32(salt)}
	java := activity.Context{Host: "app1", Program: "java", PID: 2, TID: int32(100 + salt)}
	cch := activity.Channel{Src: activity.EP("c", 1000+salt), Dst: activity.EP("w", 80)}
	wch := activity.Channel{Src: activity.EP("w", 2000+salt), Dst: activity.EP("a", 8009)}

	ts := func(i int) time.Duration { return time.Duration(i) * hop }
	g := cag.New(vx(activity.Activity{Type: activity.Begin, Timestamp: ts(0), Ctx: httpd, Chan: cch}))
	s1 := vx(activity.Activity{Type: activity.Send, Timestamp: ts(1), Ctx: httpd, Chan: wch})
	if err := g.AddVertex(s1, cag.ContextEdge, g.Root()); err != nil {
		t.Fatal(err)
	}
	r1 := vx(activity.Activity{Type: activity.Receive, Timestamp: ts(2), Ctx: java, Chan: wch})
	if err := g.AddVertex(r1, cag.MessageEdge, s1); err != nil {
		t.Fatal(err)
	}
	s2 := vx(activity.Activity{Type: activity.Send, Timestamp: ts(3), Ctx: java, Chan: wch.Reverse()})
	if err := g.AddVertex(s2, cag.ContextEdge, r1); err != nil {
		t.Fatal(err)
	}
	r2 := vx(activity.Activity{Type: activity.Receive, Timestamp: ts(4), Ctx: httpd, Chan: wch.Reverse()})
	if err := g.AddVertex(r2, cag.MessageEdge, s2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(cag.ContextEdge, s1, r2); err != nil {
		t.Fatal(err)
	}
	end := vx(activity.Activity{Type: activity.End, Timestamp: ts(5), Ctx: httpd, Chan: cch.Reverse()})
	if err := g.AddVertex(end, cag.ContextEdge, r2); err != nil {
		t.Fatal(err)
	}
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReportPercentages(t *testing.T) {
	graphs := []*cag.Graph{buildPath(t, 10*time.Millisecond, 1), buildPath(t, 10*time.Millisecond, 2)}
	reports, err := Report(graphs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("patterns = %d, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Count != 2 {
		t.Fatalf("count = %d", rep.Count)
	}
	// 5 hops of 10ms each: httpd2httpd = 2 hops (BEGIN->SEND, RECV->END),
	// httpd2java 1, java2java 1, java2httpd 1.
	if p := rep.Share("httpd2httpd").Percent; p < 39 || p > 41 {
		t.Fatalf("httpd2httpd = %f, want 40", p)
	}
	if p := rep.Share("httpd2java").Percent; p < 19 || p > 21 {
		t.Fatalf("httpd2java = %f, want 20", p)
	}
	var sum float64
	for _, s := range rep.Shares {
		sum += s.Percent
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("shares sum to %f", sum)
	}
}

func TestCategoryOrdering(t *testing.T) {
	graphs := []*cag.Graph{buildPath(t, time.Millisecond, 1)}
	reports, err := Report(graphs)
	if err != nil {
		t.Fatal(err)
	}
	cats := reports[0].Categories()
	want := []string{"httpd2httpd", "httpd2java", "java2httpd", "java2java"}
	if len(cats) != len(want) {
		t.Fatalf("categories = %v", cats)
	}
	for i := range want {
		if cats[i] != want[i] {
			t.Fatalf("categories = %v, want %v", cats, want)
		}
	}
}

func TestDominantPatternSkipsStatic(t *testing.T) {
	static := staticGraph(t)
	graphs := []*cag.Graph{static, static2(t), buildPath(t, time.Millisecond, 1)}
	rep, err := DominantPattern(graphs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count != 1 || !strings.Contains(rep.Name, "java") {
		t.Fatalf("dominant = %v", rep)
	}
	// With minVertices=0 the static pattern (2 members) wins.
	rep, err = DominantPattern(graphs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count != 2 {
		t.Fatalf("dominant with min=0: %v", rep)
	}
}

func staticGraph(t *testing.T) *cag.Graph {
	t.Helper()
	httpd := activity.Context{Host: "web1", Program: "httpd", PID: 9, TID: 9}
	ch := activity.Channel{Src: activity.EP("c", 5), Dst: activity.EP("w", 80)}
	g := cag.New(vx(activity.Activity{Type: activity.Begin, Ctx: httpd, Chan: ch}))
	if err := g.AddVertex(vx(activity.Activity{Type: activity.End, Timestamp: time.Millisecond, Ctx: httpd, Chan: ch.Reverse()}), cag.ContextEdge, g.Root()); err != nil {
		t.Fatal(err)
	}
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g
}

func static2(t *testing.T) *cag.Graph {
	t.Helper()
	g := staticGraph(t)
	return g
}

func TestDominantPatternNoMatch(t *testing.T) {
	if _, err := DominantPattern([]*cag.Graph{staticGraph(t)}, 3); err == nil {
		t.Fatal("expected error when nothing matches")
	}
}

func TestCompareAlignsCategories(t *testing.T) {
	r1, err := Report([]*cag.Graph{buildPath(t, 10*time.Millisecond, 1)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Report([]*cag.Graph{staticGraph(t)})
	if err != nil {
		t.Fatal(err)
	}
	cmp := Compare([]string{"dynamic", "static"}, []*PatternReport{r1[0], r2[0]})
	if len(cmp.Categories) != 4 {
		t.Fatalf("categories = %v", cmp.Categories)
	}
	// static run has 100% httpd2httpd, 0 elsewhere.
	if cmp.Percent[1][0] != 100 {
		t.Fatalf("static httpd2httpd = %f", cmp.Percent[1][0])
	}
	table := cmp.Table()
	if !strings.Contains(table, "httpd2java") || !strings.Contains(table, "dynamic") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestDetectorFlagsShift(t *testing.T) {
	base := &PatternReport{Shares: []ComponentShare{
		{Category: "java2java", Percent: 9},
		{Category: "httpd2java", Percent: 30},
	}}
	suspect := &PatternReport{Shares: []ComponentShare{
		{Category: "java2java", Percent: 45},
		{Category: "httpd2java", Percent: 28},
	}}
	findings := Detector{}.Diagnose(base, suspect)
	if len(findings) != 1 {
		t.Fatalf("findings = %v", findings)
	}
	f := findings[0]
	if f.Category != "java2java" || f.Suspect != "java" {
		t.Fatalf("finding = %+v", f)
	}
	if f.DeltaPoints < 35 || f.DeltaPoints > 37 {
		t.Fatalf("delta = %f", f.DeltaPoints)
	}
	if !strings.Contains(Summary(findings), "java") {
		t.Fatal("summary missing suspect")
	}
}

func TestDetectorInteractionDiagnosis(t *testing.T) {
	base := &PatternReport{Shares: []ComponentShare{{Category: "httpd2java", Percent: 20}}}
	suspect := &PatternReport{Shares: []ComponentShare{{Category: "httpd2java", Percent: 60}}}
	findings := Detector{ThresholdPoints: 10}.Diagnose(base, suspect)
	if len(findings) != 1 {
		t.Fatalf("findings = %v", findings)
	}
	if !strings.Contains(findings[0].Reason, "queueing before java") {
		t.Fatalf("reason = %q", findings[0].Reason)
	}
}

func TestDetectorHealthy(t *testing.T) {
	base := &PatternReport{Shares: []ComponentShare{{Category: "java2java", Percent: 10}}}
	findings := Detector{}.Diagnose(base, base)
	if len(findings) != 0 {
		t.Fatalf("findings on identical runs: %v", findings)
	}
	if !strings.Contains(Summary(nil), "healthy") {
		t.Fatal("healthy summary text missing")
	}
}

func TestSplitCategory(t *testing.T) {
	from, to, ok := splitCategory("httpd2java")
	if !ok || from != "httpd" || to != "java" {
		t.Fatalf("split = %q %q %v", from, to, ok)
	}
	if _, _, ok := splitCategory("nosplit"); ok {
		t.Fatal("should fail without separator")
	}
	// mysqld2mysqld contains '2' only as separator at index 6.
	from, to, ok = splitCategory("mysqld2mysqld")
	if !ok || from != "mysqld" || to != "mysqld" {
		t.Fatalf("split = %q %q %v", from, to, ok)
	}
}

func TestPatternReportString(t *testing.T) {
	reports, err := Report([]*cag.Graph{buildPath(t, time.Millisecond, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := reports[0].String()
	if !strings.Contains(s, "httpd2java") || !strings.Contains(s, "%") {
		t.Fatalf("string = %q", s)
	}
}

func TestHopDistributions(t *testing.T) {
	graphs := []*cag.Graph{
		buildPath(t, 10*time.Millisecond, 1),
		buildPath(t, 20*time.Millisecond, 2),
		buildPath(t, 30*time.Millisecond, 3),
	}
	dists := HopDistributions(graphs, nil)
	if len(dists) != 4 {
		t.Fatalf("categories = %d, want 4", len(dists))
	}
	if dists[0].Category != "httpd2httpd" {
		t.Fatalf("order: %v", dists[0].Category)
	}
	var h2j *HopDistribution
	for _, d := range dists {
		if d.Category == "httpd2java" {
			h2j = d
		}
	}
	if h2j == nil || h2j.Hist.N() != 3 {
		t.Fatalf("httpd2java samples: %v", h2j)
	}
	// Hops are 10/20/30ms; mean must be 20ms exactly.
	if h2j.Hist.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v", h2j.Hist.Mean())
	}
	table := HopTable(dists)
	if !strings.Contains(table, "p95") || !strings.Contains(table, "httpd2java") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestHopDistributionsClampNegative(t *testing.T) {
	g := buildPath(t, 10*time.Millisecond, 1)
	// Skew the cross-node RECEIVE backwards in time.
	g.Vertex(2).Timestamp = g.Vertex(1).Timestamp - 5*time.Millisecond
	dists := HopDistributions([]*cag.Graph{g}, nil)
	for _, d := range dists {
		if d.Hist.Mean() < 0 {
			t.Fatal("negative latency leaked into histogram")
		}
	}
}

func TestOutliers(t *testing.T) {
	graphs := []*cag.Graph{
		buildPath(t, 5*time.Millisecond, 1),
		buildPath(t, 50*time.Millisecond, 2), // slowest
		buildPath(t, 10*time.Millisecond, 3),
	}
	outs := Outliers(graphs, 2, nil)
	if len(outs) != 2 {
		t.Fatalf("outliers = %d", len(outs))
	}
	if outs[0].Latency != 250*time.Millisecond { // 5 hops * 50ms
		t.Fatalf("slowest latency = %v", outs[0].Latency)
	}
	if outs[0].TopCategory != "httpd2httpd" { // 2 hops of 50ms
		t.Fatalf("top category = %s", outs[0].TopCategory)
	}
	if outs[0].TopPercent < 39 || outs[0].TopPercent > 41 {
		t.Fatalf("top percent = %f", outs[0].TopPercent)
	}
	if s := outs[0].String(); !strings.Contains(s, "httpd2httpd") {
		t.Fatalf("outlier string %q", s)
	}
	if Outliers(nil, 3, nil) != nil {
		t.Fatal("empty input should return nil")
	}
	if got := Outliers(graphs, 99, nil); len(got) != 3 {
		t.Fatalf("k clamp failed: %d", len(got))
	}
}
