package cag

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/activity"
)

// vx builds a vertex represented by a copy of a.
func vx(a activity.Activity) *Vertex { return NewVertex(&a) }

// buildThreeTier constructs the canonical RUBiS-like causal path of Fig. 1
// with explicit timestamps (in ms, relative to base):
//
//	BEGIN(httpd) -c-> SEND(httpd->java) -m-> RECV(java) -c-> SEND(java->mysqld)
//	-m-> RECV(mysqld) -c-> SEND(mysqld->java) -m-> RECV(java) -c->
//	SEND(java->httpd) -m-> RECV(httpd) -c-> END(httpd)
func buildThreeTier(t *testing.T, base time.Duration, pidSalt int) *Graph {
	t.Helper()
	httpd := activity.Context{Host: "web1", Program: "httpd", PID: int32(100 + pidSalt), TID: int32(100 + pidSalt)}
	java := activity.Context{Host: "app1", Program: "java", PID: 200, TID: int32(300 + pidSalt)}
	mysql := activity.Context{Host: "db1", Program: "mysqld", PID: 400, TID: int32(500 + pidSalt)}

	clientCh := activity.Channel{Src: activity.EP("10.0.0.9", 4000+pidSalt), Dst: activity.EP("10.0.0.1", 80)}
	webApp := activity.Channel{Src: activity.EP("10.0.0.1", 34000+pidSalt), Dst: activity.EP("10.0.0.2", 8009)}
	appDB := activity.Channel{Src: activity.EP("10.0.0.2", 45000+pidSalt), Dst: activity.EP("10.0.0.3", 3306)}

	at := func(ms int) time.Duration { return base + time.Duration(ms)*time.Millisecond }
	mk := func(typ activity.Type, ts time.Duration, ctx activity.Context, ch activity.Channel) *Vertex {
		return vx(activity.Activity{Type: typ, Timestamp: ts, Ctx: ctx, Chan: ch, Size: 100, ReqID: int64(pidSalt), MsgID: -1})
	}

	g := New(mk(activity.Begin, at(0), httpd, clientCh))
	add := func(v *Vertex, kind EdgeKind, parent *Vertex) *Vertex {
		if err := g.AddVertex(v, kind, parent); err != nil {
			t.Fatalf("AddVertex: %v", err)
		}
		return v
	}
	s1 := add(mk(activity.Send, at(3), httpd, webApp), ContextEdge, g.Root())
	r1 := add(mk(activity.Receive, at(10), java, webApp), MessageEdge, s1)
	s2 := add(mk(activity.Send, at(20), java, appDB), ContextEdge, r1)
	r2 := add(mk(activity.Receive, at(24), mysql, appDB), MessageEdge, s2)
	s3 := add(mk(activity.Send, at(32), mysql, appDB.Reverse()), ContextEdge, r2)
	r3 := add(mk(activity.Receive, at(36), java, appDB.Reverse()), MessageEdge, s3)
	if err := g.AddEdge(ContextEdge, s2, r3); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	s4 := add(mk(activity.Send, at(44), java, webApp.Reverse()), ContextEdge, r3)
	r4 := add(mk(activity.Receive, at(50), httpd, webApp.Reverse()), MessageEdge, s4)
	if err := g.AddEdge(ContextEdge, s1, r4); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	add(mk(activity.End, at(52), httpd, clientCh.Reverse()), ContextEdge, r4)
	if err := g.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return g
}

func TestGraphConstructionAndValidate(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Len() != 10 {
		t.Fatalf("Len = %d, want 10", g.Len())
	}
	if !g.Finished() {
		t.Fatal("graph should be finished")
	}
	if g.End().Type != activity.End {
		t.Fatalf("End vertex type = %v", g.End().Type)
	}
}

func TestLatency(t *testing.T) {
	g := buildThreeTier(t, time.Second, 1)
	if got := g.Latency(); got != 52*time.Millisecond {
		t.Fatalf("Latency = %v, want 52ms", got)
	}
}

func TestOnlyReceiveMayHaveTwoParents(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	// Try to give the END vertex (already has ctx parent) a message parent.
	err := g.AddEdge(MessageEdge, g.Vertex(1), g.End())
	if err == nil {
		t.Fatal("expected error adding second parent to non-RECEIVE")
	}
}

func TestDuplicateParentKindRejected(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	r4 := g.Vertex(8) // final RECEIVE, already has both parents
	if r4.Parents() != 2 {
		t.Fatalf("test setup: vertex 8 has %d parents", r4.Parents())
	}
	if err := g.AddEdge(ContextEdge, g.Root(), r4); err == nil {
		t.Fatal("expected ErrTooManyParent")
	}
}

func TestVertexSize(t *testing.T) {
	// A vertex embeds its representative record instead of copying it;
	// a field added back moves it out of the 80 B size class.
	if got := unsafe.Sizeof(Vertex{}); got > 80 {
		t.Fatalf("unsafe.Sizeof(Vertex{}) = %d B, want <= 80", got)
	}
}

func TestForeignParentRejected(t *testing.T) {
	g1 := buildThreeTier(t, 0, 1)
	g2 := buildThreeTier(t, 0, 2)
	v := vx(activity.Activity{Type: activity.Send, Ctx: g1.Root().Ctx})
	if err := g2.AddVertex(v, ContextEdge, g1.Root()); err == nil {
		t.Fatal("expected ErrForeignVertex")
	}
}

func TestContainsDistinguishesGraphs(t *testing.T) {
	g1 := buildThreeTier(t, 0, 1)
	g2 := buildThreeTier(t, 0, 2)
	if !g1.Contains(g1.Vertex(3)) {
		t.Fatal("Contains(own vertex) = false")
	}
	if g1.Contains(g2.Vertex(3)) {
		t.Fatal("Contains(other graph's vertex) = true")
	}
	if g1.Contains(nil) {
		t.Fatal("Contains(nil) = true")
	}
}

func TestFinishTwiceFails(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	if err := g.Finish(); err == nil {
		t.Fatal("second Finish should fail")
	}
}

func TestAddAfterFinishFails(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	v := vx(activity.Activity{Type: activity.Send, Ctx: g.Root().Ctx})
	if err := g.AddVertex(v, ContextEdge, g.Root()); err == nil {
		t.Fatal("AddVertex after Finish should fail")
	}
}

func TestSignatureIsomorphism(t *testing.T) {
	// Same shape, different base times, PIDs, TIDs and ports => isomorphic.
	g1 := buildThreeTier(t, 0, 1)
	g2 := buildThreeTier(t, 5*time.Second, 77)
	if Signature(g1) != Signature(g2) {
		t.Fatalf("expected isomorphic:\n%s\nvs\n%s", Signature(g1), Signature(g2))
	}
}

func TestSignatureDistinguishesShapes(t *testing.T) {
	g1 := buildThreeTier(t, 0, 1)
	// A one-tier static request: BEGIN -> END.
	httpd := activity.Context{Host: "web1", Program: "httpd", PID: 1, TID: 1}
	ch := activity.Channel{Src: activity.EP("10.0.0.9", 4000), Dst: activity.EP("10.0.0.1", 80)}
	g2 := New(vx(activity.Activity{Type: activity.Begin, Ctx: httpd, Chan: ch}))
	if err := g2.AddVertex(vx(activity.Activity{Type: activity.End, Timestamp: time.Millisecond, Ctx: httpd, Chan: ch.Reverse()}), ContextEdge, g2.Root()); err != nil {
		t.Fatal(err)
	}
	if err := g2.Finish(); err != nil {
		t.Fatal(err)
	}
	if Signature(g1) == Signature(g2) {
		t.Fatal("different shapes must not be isomorphic")
	}
}

func TestCriticalPathTelescopes(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	segs := Breakdown(g)
	var sum time.Duration
	for _, s := range segs {
		sum += s.Latency
	}
	if sum != g.Latency() {
		t.Fatalf("breakdown sums to %v, want %v", sum, g.Latency())
	}
	if len(segs) != 9 {
		t.Fatalf("got %d segments, want 9", len(segs))
	}
}

func TestBreakdownCategories(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	lat := ComponentLatencies(g)
	want := map[string]time.Duration{
		"httpd2httpd":   5 * time.Millisecond,  // 3ms BEGIN->SEND + 2ms RECV->END
		"httpd2java":    7 * time.Millisecond,  // 10-3
		"java2java":     18 * time.Millisecond, // (20-10)+(44-36)
		"java2mysqld":   4 * time.Millisecond,
		"mysqld2mysqld": 8 * time.Millisecond,
		"mysqld2java":   4 * time.Millisecond,
		"java2httpd":    6 * time.Millisecond,
	}
	for cat, d := range want {
		if lat[cat] != d {
			t.Errorf("%s = %v, want %v", cat, lat[cat], d)
		}
	}
	if len(lat) != len(want) {
		t.Errorf("got %d categories %v, want %d", len(lat), lat, len(want))
	}
}

func TestCriticalPathVisitsAllTiers(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	path := CriticalPath(g)
	if len(path) != 10 {
		t.Fatalf("path length = %d, want 10 (all vertices on chain)", len(path))
	}
	if path[0] != g.Root() || path[len(path)-1] != g.End() {
		t.Fatal("path must run root..end")
	}
}

func TestAggregate(t *testing.T) {
	g1 := buildThreeTier(t, 0, 1)
	g2 := buildThreeTier(t, time.Second, 2)
	avg, err := Aggregate([]*Graph{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Count != 2 {
		t.Fatalf("Count = %d", avg.Count)
	}
	if avg.MeanLatency != 52*time.Millisecond {
		t.Fatalf("MeanLatency = %v, want 52ms", avg.MeanLatency)
	}
	if avg.Components["mysqld2mysqld"] != 8*time.Millisecond {
		t.Fatalf("mysqld2mysqld = %v", avg.Components["mysqld2mysqld"])
	}
}

func TestAggregateRejectsMixedPatterns(t *testing.T) {
	g1 := buildThreeTier(t, 0, 1)
	httpd := activity.Context{Host: "web1", Program: "httpd", PID: 1, TID: 1}
	ch := activity.Channel{Src: activity.EP("c", 1), Dst: activity.EP("s", 80)}
	g2 := New(vx(activity.Activity{Type: activity.Begin, Ctx: httpd, Chan: ch}))
	if err := g2.AddVertex(vx(activity.Activity{Type: activity.End, Ctx: httpd, Chan: ch.Reverse()}), ContextEdge, g2.Root()); err != nil {
		t.Fatal(err)
	}
	if err := g2.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := Aggregate([]*Graph{g1, g2}); err == nil {
		t.Fatal("expected error aggregating mixed patterns")
	}
}

func TestAggregateEmpty(t *testing.T) {
	if _, err := Aggregate(nil); err == nil {
		t.Fatal("expected error for empty aggregate")
	}
}

func TestPercentagesSumTo100(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	avg, err := Aggregate([]*Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for c := range avg.Components {
		sum += avg.Percent(c)
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("percentages sum to %f, want 100", sum)
	}
	if p := avg.Percent("java2java"); p < 34 || p > 35 { // 18/52
		t.Fatalf("java2java percent = %f", p)
	}
}

func TestClassify(t *testing.T) {
	graphs := []*Graph{
		buildThreeTier(t, 0, 1),
		buildThreeTier(t, time.Second, 2),
		buildThreeTier(t, 2*time.Second, 3),
	}
	// One singleton with a different shape.
	httpd := activity.Context{Host: "web1", Program: "httpd", PID: 1, TID: 1}
	ch := activity.Channel{Src: activity.EP("c", 1), Dst: activity.EP("s", 80)}
	g := New(vx(activity.Activity{Type: activity.Begin, Ctx: httpd, Chan: ch}))
	if err := g.AddVertex(vx(activity.Activity{Type: activity.End, Ctx: httpd, Chan: ch.Reverse()}), ContextEdge, g.Root()); err != nil {
		t.Fatal(err)
	}
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, g)

	patterns := Classify(graphs)
	if len(patterns) != 2 {
		t.Fatalf("got %d patterns, want 2", len(patterns))
	}
	if patterns[0].Count() != 3 || patterns[1].Count() != 1 {
		t.Fatalf("pattern sizes = %d,%d", patterns[0].Count(), patterns[1].Count())
	}
	if patterns[0].Name != "httpd>java>mysqld>java>httpd" {
		t.Fatalf("pattern name = %q", patterns[0].Name)
	}
}

func TestDumpShowsEdges(t *testing.T) {
	g := buildThreeTier(t, 0, 1)
	d := Dump(g)
	if !strings.Contains(d, "BEGIN") || !strings.Contains(d, "m<-") || !strings.Contains(d, "c<-") {
		t.Fatalf("dump missing expected markers:\n%s", d)
	}
}

func TestRequestAndRecordIDs(t *testing.T) {
	g := buildThreeTier(t, 0, 7)
	ids := g.RequestIDs()
	if len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("RequestIDs = %v, want [7]", ids)
	}
	if got := len(g.RecordIDs()); got != 10 {
		t.Fatalf("RecordIDs count = %d, want 10", got)
	}
}

func TestValidateCatchesCrossContextEdge(t *testing.T) {
	httpd := activity.Context{Host: "web1", Program: "httpd", PID: 1, TID: 1}
	other := activity.Context{Host: "web1", Program: "httpd", PID: 2, TID: 2}
	ch := activity.Channel{Src: activity.EP("c", 1), Dst: activity.EP("s", 80)}
	g := New(vx(activity.Activity{Type: activity.Begin, Ctx: httpd, Chan: ch}))
	// Context edge to a vertex in a different context is invalid.
	if err := g.AddVertex(vx(activity.Activity{Type: activity.End, Ctx: other, Chan: ch}), ContextEdge, g.Root()); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject cross-context ctx edge")
	}
}
