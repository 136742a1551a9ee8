package export

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/rubis"
)

// vx builds a vertex represented by a copy of a.
func vx(a activity.Activity) *cag.Vertex { return cag.NewVertex(&a) }

// buildPath builds the canonical two-tier request graph: six vertices
// on web1/httpd and app1/java, a message round trip, and the extra
// context edge into the RECEIVE — the same shape the analysis and live
// tests use.
func buildPath(t testing.TB, hop time.Duration, salt int) *cag.Graph {
	t.Helper()
	httpd := activity.Context{Host: "web1", Program: "httpd", PID: int32(salt), TID: int32(salt)}
	java := activity.Context{Host: "app1", Program: "java", PID: 2, TID: int32(100 + salt)}
	cch := activity.Channel{Src: activity.EP("c", 1000+salt), Dst: activity.EP("w", 80)}
	wch := activity.Channel{Src: activity.EP("w", 2000+salt), Dst: activity.EP("a", 8009)}

	ts := func(i int) time.Duration { return time.Duration(i) * hop }
	g := cag.New(vx(activity.Activity{Type: activity.Begin, Timestamp: ts(0), Ctx: httpd, Chan: cch}))
	s1 := vx(activity.Activity{Type: activity.Send, Timestamp: ts(1), Ctx: httpd, Chan: wch, Size: 512})
	if err := g.AddVertex(s1, cag.ContextEdge, g.Root()); err != nil {
		t.Fatal(err)
	}
	r1 := vx(activity.Activity{Type: activity.Receive, Timestamp: ts(2), Ctx: java, Chan: wch, Size: 512})
	if err := g.AddVertex(r1, cag.MessageEdge, s1); err != nil {
		t.Fatal(err)
	}
	s2 := vx(activity.Activity{Type: activity.Send, Timestamp: ts(3), Ctx: java, Chan: wch.Reverse(), Size: 2048})
	if err := g.AddVertex(s2, cag.ContextEdge, r1); err != nil {
		t.Fatal(err)
	}
	r2 := vx(activity.Activity{Type: activity.Receive, Timestamp: ts(4), Ctx: httpd, Chan: wch.Reverse(), Size: 2048})
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

type edge struct{ from, to int }

// dotEdges parses the edge lines out of cag.ToDOT — the reference edge
// sets the OTLP span tree must reproduce.
func dotEdges(t *testing.T, dot string) (ctx, msg []edge) {
	t.Helper()
	re := regexp.MustCompile(`v(\d+) -> v(\d+) \[style=(solid|dashed)`)
	for _, m := range re.FindAllStringSubmatch(dot, -1) {
		var e edge
		fmt.Sscanf(m[1], "%d", &e.from)
		fmt.Sscanf(m[2], "%d", &e.to)
		if m[3] == "solid" {
			ctx = append(ctx, e)
		} else {
			msg = append(msg, e)
		}
	}
	return ctx, msg
}

func attr(sp Span, key string) (string, bool) {
	for _, kv := range sp.Attributes {
		if kv.Key != key {
			continue
		}
		if kv.Value.StringValue != nil {
			return *kv.Value.StringValue, true
		}
		if kv.Value.IntValue != nil {
			return *kv.Value.IntValue, true
		}
	}
	return "", false
}

// TestTraceMatchesDOT pins the acceptance criterion: the exported span
// tree carries exactly the vertex/edge structure of the DOT render —
// context edges as parentSpanId links tagged ctx, message edges as span
// links — and the Exporter's line parses as valid OTLP-JSON.
func TestTraceMatchesDOT(t *testing.T) {
	g := buildPath(t, 3*time.Millisecond, 7)
	g.SetProvenance(true, true)

	var raw bytes.Buffer
	NewExporter(&raw).ConsumeGraph(g)
	var req Request
	if err := json.Unmarshal(raw.Bytes(), &req); err != nil {
		t.Fatalf("re-parse OTLP-JSON: %v", err)
	}
	if len(req.ResourceSpans) != 1 || len(req.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("shape = %d resourceSpans", len(req.ResourceSpans))
	}
	if v, _ := attr(Span{Attributes: req.ResourceSpans[0].Resource.Attributes}, "service.name"); v != "precisetracer" {
		t.Fatalf("service.name = %q", v)
	}
	spans := req.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != g.Len() {
		t.Fatalf("spans = %d, want %d", len(spans), g.Len())
	}

	traceID := oracleTraceID(g)
	if len(traceID) != 32 || traceID == strings.Repeat("0", 32) {
		t.Fatalf("traceId = %q", traceID)
	}
	spanIdx := make(map[string]int) // spanId -> vertex index
	for i := range spans {
		if spans[i].TraceID != traceID {
			t.Fatalf("span %d traceId = %q, want %q", i, spans[i].TraceID, traceID)
		}
		if want := oracleSpanID(traceID, i); spans[i].SpanID != want {
			t.Fatalf("span %d spanId = %q, want %q", i, spans[i].SpanID, want)
		}
		spanIdx[spans[i].SpanID] = i
	}

	// Reconstruct the edge sets from the spans.
	var gotCtx, gotMsg []edge
	for i, sp := range spans {
		kind, _ := attr(sp, "cag.parent_edge")
		if sp.ParentSpanID != "" && kind == "ctx" {
			gotCtx = append(gotCtx, edge{from: spanIdx[sp.ParentSpanID], to: i})
		}
		for _, l := range sp.Links {
			gotMsg = append(gotMsg, edge{from: spanIdx[l.SpanID], to: i})
		}
		if sp.ParentSpanID != "" && kind == "msg" {
			// A msg parent must also appear among the links.
			found := false
			for _, l := range sp.Links {
				if l.SpanID == sp.ParentSpanID {
					found = true
				}
			}
			if !found {
				t.Fatalf("span %d: msg parent missing from links", i)
			}
		}
	}
	wantCtx, wantMsg := dotEdges(t, cag.ToDOT(g, cag.PatternName(g)))
	assertEdges(t, "ctx", gotCtx, wantCtx)
	assertEdges(t, "msg", gotMsg, wantMsg)

	// Vertex metadata: name, type, host, times.
	for i, sp := range spans {
		v := g.Vertex(i)
		if want := fmt.Sprintf("%s %s/%s", v.Type, v.Ctx.Host, v.Ctx.Program); sp.Name != want {
			t.Fatalf("span %d name = %q, want %q", i, sp.Name, want)
		}
		if want := fmt.Sprintf("%d", v.Timestamp.Nanoseconds()); sp.StartTimeUnixNano != want {
			t.Fatalf("span %d start = %q, want %q", i, sp.StartTimeUnixNano, want)
		}
		var start, end int64
		fmt.Sscanf(sp.StartTimeUnixNano, "%d", &start)
		fmt.Sscanf(sp.EndTimeUnixNano, "%d", &end)
		if end < start {
			t.Fatalf("span %d ends (%d) before it starts (%d)", i, end, start)
		}
	}

	// Root carries identity attributes and the provenance events.
	root := spans[0]
	if sig, _ := attr(root, "cag.signature"); sig != cag.Signature(g) {
		t.Fatalf("root signature = %q", sig)
	}
	if pat, _ := attr(root, "cag.pattern"); pat != cag.PatternName(g) {
		t.Fatalf("root pattern = %q", pat)
	}
	if lat, _ := attr(root, "cag.latency_ns"); lat != fmt.Sprintf("%d", g.Latency().Nanoseconds()) {
		t.Fatalf("root latency = %q", lat)
	}
	names := make([]string, 0, 2)
	for _, ev := range root.Events {
		names = append(names, ev.Name)
	}
	if len(names) != 2 || names[0] != "cag.forced_seal" || names[1] != "cag.late_link" {
		t.Fatalf("root events = %v", names)
	}
}

func assertEdges(t *testing.T, kind string, got, want []edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s edges = %v, want %v", kind, got, want)
	}
	seen := make(map[edge]bool, len(want))
	for _, e := range want {
		seen[e] = true
	}
	for _, e := range got {
		if !seen[e] {
			t.Fatalf("%s edge %v not in DOT render (%v)", kind, e, want)
		}
	}
}

// exportedSpans parses the spans out of the Exporter's line for g.
func exportedSpans(t *testing.T, e *Exporter, out *bytes.Buffer, g *cag.Graph) []Span {
	t.Helper()
	out.Reset()
	e.ConsumeGraph(g)
	var req Request
	if err := json.Unmarshal(out.Bytes(), &req); err != nil {
		t.Fatalf("re-parse OTLP-JSON: %v", err)
	}
	return req.ResourceSpans[0].ScopeSpans[0].Spans
}

// TestTraceIDDeterministic pins ID stability and distinctness, on the
// IDs the Exporter writes.
func TestTraceIDDeterministic(t *testing.T) {
	var out bytes.Buffer
	e := NewExporter(&out)
	a := buildPath(t, 2*time.Millisecond, 1)
	b := buildPath(t, 2*time.Millisecond, 2)
	a1 := exportedSpans(t, e, &out, a)
	a2 := exportedSpans(t, e, &out, a)
	b1 := exportedSpans(t, e, &out, b)
	if a1[0].TraceID != a2[0].TraceID || a1[1].SpanID != a2[1].SpanID {
		t.Fatal("ids not stable across re-exports")
	}
	if a1[0].TraceID == b1[0].TraceID {
		t.Fatal("distinct requests share a traceId")
	}
	if a1[0].SpanID == a1[1].SpanID {
		t.Fatal("span ids collide across indices")
	}
}

func TestFileExporterNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	e, err := NewFileExporter(path)
	if err != nil {
		t.Fatal(err)
	}
	var mem bytes.Buffer
	inMemory := NewExporter(&mem)
	for i := 0; i < 3; i++ {
		g := buildPath(t, time.Millisecond, i)
		e.ConsumeGraph(g)
		inMemory.ConsumeGraph(g)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Graphs() != 3 || e.Spans() != 18 {
		t.Fatalf("graphs/spans = %d/%d", e.Graphs(), e.Spans())
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, mem.Bytes()) {
		t.Fatalf("file (err %v) differs from the in-memory exporter's output", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var req Request
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if n := len(req.ResourceSpans[0].ScopeSpans[0].Spans); n != 6 {
			t.Fatalf("line %d: spans = %d", lines+1, n)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("lines = %d, want 3", lines)
	}
}

func TestHTTPExporterBatches(t *testing.T) {
	var posts int
	var spans int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				spans += len(ss.Spans)
			}
		}
		posts++
	}))
	defer srv.Close()

	h := NewHTTPExporter(srv.URL)
	h.SetBatchSize(2)
	for i := 0; i < 5; i++ {
		h.ConsumeGraph(buildPath(t, time.Millisecond, i))
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if posts != 3 || h.Posts() != 3 {
		t.Fatalf("posts = %d/%d, want 3", posts, h.Posts())
	}
	if spans != 30 {
		t.Fatalf("spans = %d, want 30", spans)
	}
}

func TestHTTPExporterStickyError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer srv.Close()
	h := NewHTTPExporter(srv.URL)
	h.SetBatchSize(1)
	h.ConsumeGraph(buildPath(t, time.Millisecond, 0))
	if h.Err() == nil {
		t.Fatal("expected sticky error after 502")
	}
	h.ConsumeGraph(buildPath(t, time.Millisecond, 1))
	if err := h.Close(); err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("close err = %v", err)
	}
	if h.Posts() != 0 {
		t.Fatalf("posts = %d after a 502, want 0", h.Posts())
	}
}

// TestHTTPExporterFollowsRedirect: an endpoint that answers 307 or 308
// (an ingress moving the collector) still receives each batch intact.
func TestHTTPExporterFollowsRedirect(t *testing.T) {
	for _, code := range []int{http.StatusTemporaryRedirect, http.StatusPermanentRedirect} {
		var got [][]byte
		mux := http.NewServeMux()
		mux.HandleFunc("/old", func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			http.Redirect(w, r, "/v1/traces", code)
		})
		mux.HandleFunc("/v1/traces", func(w http.ResponseWriter, r *http.Request) {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("read body: %v", err)
			}
			got = append(got, b)
		})
		srv := httptest.NewServer(mux)
		h := NewHTTPExporter(srv.URL + "/old")
		h.SetBatchSize(1)
		var want [][]byte
		for i := 0; i < 2; i++ {
			g := buildPath(t, time.Millisecond, i)
			h.ConsumeGraph(g)
			b, err := json.Marshal(Trace(g))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b)
		}
		if err := h.Close(); err != nil {
			t.Fatalf("%d: %v", code, err)
		}
		srv.Close()
		if h.Posts() != 2 || len(got) != 2 {
			t.Fatalf("%d: posts = %d, bodies = %d, want 2", code, h.Posts(), len(got))
		}
		for i := range got {
			assertSameBytes(t, fmt.Sprintf("%d body %d", code, i), got[i], want[i])
		}
	}
}

// TestFileSinkFlushErrorSticky: the file sinks buffer their output, so
// a write error surfaces when Close flushes — and must still become
// the sticky error.
func TestFileSinkFlushErrorSticky(t *testing.T) {
	dir := t.TempDir()
	e, err := NewFileExporter(filepath.Join(dir, "spans.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDumpFile(filepath.Join(dir, "dump.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// Close the files under the buffers: a one-vertex graph fits in the
	// buffer, so only the flush sees the failure.
	e.c.(*bufferedFile).f.Close()
	d.c.(*bufferedFile).f.Close()
	g := cag.New(vx(activity.Activity{Type: activity.Begin, Ctx: activity.Context{Host: "h", Program: "p"}}))
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	e.ConsumeGraph(g)
	d.ConsumeGraph(g)
	if e.Err() != nil || d.Err() != nil {
		t.Fatalf("buffered write failed early: %v / %v", e.Err(), d.Err())
	}
	if err := e.Close(); err == nil || e.Err() != err {
		t.Fatalf("exporter close err = %v, sticky %v", err, e.Err())
	}
	if err := d.Close(); err == nil || d.Err() != err {
		t.Fatalf("dump close err = %v, sticky %v", err, d.Err())
	}
}

func TestDOTDirSink(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dots")
	d, err := NewDOTDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := buildPath(t, time.Millisecond, 3)
	d.ConsumeGraph(g)
	d.ConsumeGraph(buildPath(t, time.Millisecond, 4))
	if d.Err() != nil || d.Graphs() != 2 {
		t.Fatalf("err=%v graphs=%d", d.Err(), d.Graphs())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "cag-000001.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != cag.ToDOT(g, cag.PatternName(g)) {
		t.Fatal("dot file differs from ToDOT render")
	}
}

func TestDumpWriterSink(t *testing.T) {
	var b strings.Builder
	d := NewDumpWriter(&b)
	path := filepath.Join(t.TempDir(), "dump.txt")
	f, err := NewDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g := buildPath(t, time.Millisecond, 5)
	d.ConsumeGraph(g)
	f.ConsumeGraph(g)
	out := b.String()
	if !strings.Contains(out, "=== graph 1 ") || !strings.Contains(out, cag.Dump(g)) {
		t.Fatalf("dump output missing sections:\n%s", out)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != out {
		t.Fatalf("dump file (err %v) differs from the in-memory writer's output", err)
	}
}

// rubisGraphs correlates a small RUBiS run into its graphs.
func rubisGraphs(tb testing.TB, scale float64) []*cag.Graph {
	tb.Helper()
	cfg := rubis.DefaultConfig(120)
	cfg.Scale = scale
	res, err := rubis.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := core.New(core.Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
	}).CorrelateTrace(res.Trace)
	if err != nil {
		tb.Fatal(err)
	}
	if len(out.Graphs) == 0 {
		tb.Fatal("RUBiS run produced no graphs")
	}
	return out.Graphs
}

// awkwardGraphs builds graphs whose names exercise every escaping rule
// of the JSON and %q encoders, under all four provenance combinations,
// plus a long chain (three-digit indices, a critical path and signature
// longer than the encoders' stack buffers), an unfinished graph, and
// record-backed vertices.
func awkwardGraphs(t *testing.T) []*cag.Graph {
	t.Helper()
	names := []struct{ host, prog string }{
		{`we"b`, `ht\tpd`},
		{"<web>&", "a>b<c&d"},
		{"ctl\x00\x01\b\f\n\r\t\x1f\x7f", "prog\x1b"},
		{"bad\xff\xc3", "trunc\xe2\x80"},
		{"sep\u2028\u2029", "caf\u00e9\u65e5\u672c"},
	}
	var out []*cag.Graph
	for i, n := range names {
		g := buildPath(t, 1500*time.Nanosecond, i)
		for j := 0; j < g.Len(); j++ {
			v := g.Vertex(j)
			if v.Ctx.Host == "app1" {
				v.Ctx.Host, v.Ctx.Program = n.host, n.prog
				v.Chan.Src.IP = activity.Syms.Intern(n.host)
			}
		}
		g.SetProvenance(i%2 == 1, i/2%2 == 1)
		out = append(out, g)
	}

	ctx := activity.Context{Host: "h", Program: "p", PID: 1, TID: 1}
	g := cag.New(cag.NewVertex(&activity.Activity{ID: 41, Type: activity.Begin, Timestamp: 90 * time.Second, Ctx: ctx}))
	prev := g.Root()
	for i := 1; i < 120; i++ {
		c := ctx
		if i%3 == 0 {
			c.Program = "q"
		}
		typ := activity.Send
		if i == 119 {
			typ = activity.End
		}
		v := cag.NewVertex(&activity.Activity{ID: int64(41 + i), Type: typ, Timestamp: 90*time.Second + time.Duration(i*i)*time.Microsecond, Ctx: c})
		if err := g.AddVertex(v, cag.ContextEdge, prev); err != nil {
			t.Fatal(err)
		}
		prev = v
	}
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	g.SetProvenance(true, true)
	out = append(out, g)

	u := cag.New(vx(activity.Activity{Type: activity.Begin, Timestamp: -time.Millisecond, Ctx: ctx}))
	if err := u.AddVertex(vx(activity.Activity{Type: activity.Send, Timestamp: 0, Ctx: ctx}), cag.ContextEdge, u.Root()); err != nil {
		t.Fatal(err)
	}
	return append(out, u)
}

// TestSinkEncodeMatchesOracle pins the sinks' byte-identity contract:
// every byte the NDJSON Exporter, the HTTPExporter's POST bodies and the
// DumpWriter produce — and cag's Signature, PatternName and Dump — equals
// what the fmt / encoding/json oracle below produces from the same
// graphs.
func TestSinkEncodeMatchesOracle(t *testing.T) {
	graphs := append(rubisGraphs(t, 0.01), awkwardGraphs(t)...)

	for i, g := range graphs {
		if got, want := cag.Signature(g), oracleSignature(g); got != want {
			t.Fatalf("graph %d: Signature = %q, oracle %q", i, got, want)
		}
		if got, want := cag.PatternName(g), oraclePatternName(g); got != want {
			t.Fatalf("graph %d: PatternName = %q, oracle %q", i, got, want)
		}
		if got, want := cag.Dump(g), oracleDump(g); got != want {
			t.Fatalf("graph %d: Dump =\n%s\noracle\n%s", i, got, want)
		}
	}

	var got, want bytes.Buffer
	e := NewExporter(&got)
	enc := json.NewEncoder(&want)
	for _, g := range graphs {
		e.ConsumeGraph(g)
		if err := enc.Encode(Trace(g)); err != nil {
			t.Fatal(err)
		}
	}
	assertSameBytes(t, "NDJSON", got.Bytes(), want.Bytes())

	for _, n := range []int{1, 2, 64} {
		var mu sync.Mutex
		var bodies [][]byte
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("read body: %v", err)
			}
			mu.Lock()
			bodies = append(bodies, b)
			mu.Unlock()
		}))
		h := NewHTTPExporter(srv.URL)
		h.SetBatchSize(n)
		for _, g := range graphs {
			h.ConsumeGraph(g)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		var wantBodies [][]byte
		for i := 0; i < len(graphs); i += n {
			var rs []ResourceSpans
			for _, g := range graphs[i:min(i+n, len(graphs))] {
				rs = append(rs, Trace(g).ResourceSpans...)
			}
			b, err := json.Marshal(Request{ResourceSpans: rs})
			if err != nil {
				t.Fatal(err)
			}
			wantBodies = append(wantBodies, b)
		}
		if len(bodies) != len(wantBodies) || h.Posts() != len(wantBodies) {
			t.Fatalf("batch %d: %d bodies, %d posts, want %d", n, len(bodies), h.Posts(), len(wantBodies))
		}
		for i := range bodies {
			assertSameBytes(t, fmt.Sprintf("batch %d body %d", n, i), bodies[i], wantBodies[i])
		}
	}

	got.Reset()
	want.Reset()
	d := NewDumpWriter(&got)
	for i, g := range graphs {
		d.ConsumeGraph(g)
		forced, late := g.Provenance()
		fmt.Fprintf(&want, "=== graph %d pattern=%q latency=%v forced=%v late=%v\n%s\n",
			i+1, oraclePatternName(g), g.Latency(), forced, late, oracleDump(g))
	}
	assertSameBytes(t, "dump", got.Bytes(), want.Bytes())
}

func assertSameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	t.Fatalf("%s differs from the oracle at byte %d of %d/%d:\n got …%q\nwant …%q",
		what, i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
}

// FuzzAppendJSONString checks the writer's string escaper against
// encoding/json, for both string and []byte input.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `"\`, "<>&", "\b\f\n\r\t\x00\x1f\x7f",
		"\xff\xc3", "\xe2\x80", "\u2028\u2029", "caf\u00e9\u65e5\u672c", "\U0001F600"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("string %q: got %s, want %s", s, got, want)
		}
		if got := appendJSONString([]byte("x"), []byte(s)); !bytes.Equal(got[1:], want) {
			t.Fatalf("[]byte %q: got %s, want %s", s, got[1:], want)
		}
	})
}

// BenchmarkExportSinks is one graph through the OTLP exporter and the
// DumpWriter, cycling over a fixed set of RUBiS graphs. make
// bench-allocs gates its allocs/op: a per-span or per-attribute
// allocation fails it.
func BenchmarkExportSinks(b *testing.B) {
	graphs := rubisGraphs(b, 0.01)
	otlp := NewExporter(io.Discard)
	dump := NewDumpWriter(io.Discard)
	for _, g := range graphs { // warm the reused buffers
		otlp.ConsumeGraph(g)
		dump.ConsumeGraph(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graphs[i%len(graphs)]
		otlp.ConsumeGraph(g)
		dump.ConsumeGraph(g)
	}
}

// The oracle: the OTLP/JSON struct tree, built per graph and rendered
// by encoding/json, and the fmt renderings of the dump, signature and
// pattern name — the pre-append-writer implementations the sinks must
// reproduce byte for byte.

// Request is one ExportTraceServiceRequest payload.
type Request struct {
	ResourceSpans []ResourceSpans `json:"resourceSpans"`
}

// ResourceSpans groups the spans of one resource.
type ResourceSpans struct {
	Resource   Resource     `json:"resource"`
	ScopeSpans []ScopeSpans `json:"scopeSpans"`
}

// Resource identifies the emitting service.
type Resource struct {
	Attributes []KeyValue `json:"attributes,omitempty"`
}

// ScopeSpans groups the spans of one instrumentation scope.
type ScopeSpans struct {
	Scope Scope  `json:"scope"`
	Spans []Span `json:"spans"`
}

// Scope names the instrumentation that produced the spans.
type Scope struct {
	Name string `json:"name"`
}

// Span is one OTLP span.
type Span struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	ParentSpanID      string     `json:"parentSpanId,omitempty"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind,omitempty"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []KeyValue `json:"attributes,omitempty"`
	Events            []Event    `json:"events,omitempty"`
	Links             []Link     `json:"links,omitempty"`
}

// Event is one timestamped span event.
type Event struct {
	TimeUnixNano string     `json:"timeUnixNano"`
	Name         string     `json:"name"`
	Attributes   []KeyValue `json:"attributes,omitempty"`
}

// Link points at another span (here: always within the same trace).
type Link struct {
	TraceID    string     `json:"traceId"`
	SpanID     string     `json:"spanId"`
	Attributes []KeyValue `json:"attributes,omitempty"`
}

// KeyValue is one attribute.
type KeyValue struct {
	Key   string   `json:"key"`
	Value AnyValue `json:"value"`
}

// AnyValue carries a string or int attribute value. OTLP/JSON renders
// 64-bit integers as decimal strings.
type AnyValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	IntValue    *string `json:"intValue,omitempty"`
}

// Str builds a string attribute.
func Str(key, val string) KeyValue {
	return KeyValue{Key: key, Value: AnyValue{StringValue: &val}}
}

// Int builds an integer attribute.
func Int(key string, val int64) KeyValue {
	s := strconv.FormatInt(val, 10)
	return KeyValue{Key: key, Value: AnyValue{IntValue: &s}}
}

// spanKindInternal is OTLP's SPAN_KIND_INTERNAL.
const spanKindInternal = 1

func oracleContext(c activity.Context) string {
	return fmt.Sprintf("%s/%s[%d:%d]", c.Host, c.Program, c.PID, c.TID)
}

func oracleTraceID(g *cag.Graph) string {
	h := fnv.New128a()
	fmt.Fprintf(h, "%s|%d|", oracleSignature(g), g.Len())
	if root := g.Root(); root != nil {
		fmt.Fprintf(h, "%d|%s|", root.Timestamp, oracleContext(root.Ctx))
		if len(root.Records) > 0 {
			fmt.Fprintf(h, "%d|", root.Records[0].ID)
		}
	}
	if end := g.End(); end != nil {
		fmt.Fprintf(h, "%d", end.Timestamp)
	}
	sum := h.Sum(nil)
	zero := true
	for _, b := range sum {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		sum[len(sum)-1] = 1
	}
	return fmt.Sprintf("%x", sum)
}

func oracleSpanID(traceID string, index int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", traceID, index)
	sum := h.Sum64()
	if sum == 0 {
		sum = 1
	}
	return fmt.Sprintf("%016x", sum)
}

// Trace converts one finished CAG into an OTLP export request holding a
// single trace, per the package mapping table.
func Trace(g *cag.Graph) Request {
	traceID := oracleTraceID(g)
	spans := make([]Span, 0, g.Len())
	for i := 0; i < g.Len(); i++ {
		v := g.Vertex(i)
		sp := Span{
			TraceID:           traceID,
			SpanID:            oracleSpanID(traceID, i),
			Name:              fmt.Sprintf("%s %s/%s", v.Type, v.Ctx.Host, v.Ctx.Program),
			Kind:              spanKindInternal,
			StartTimeUnixNano: nanos(v.Timestamp.Nanoseconds()),
			EndTimeUnixNano:   nanos(spanEnd(g, v)),
		}
		sp.Attributes = append(sp.Attributes,
			Str("cag.type", v.Type.String()),
			Str("cag.host", v.Ctx.Host),
			Str("cag.program", v.Ctx.Program),
			Int("cag.pid", int64(v.Ctx.PID)),
			Int("cag.tid", int64(v.Ctx.TID)),
		)
		switch {
		case v.CtxParent() != nil:
			sp.ParentSpanID = oracleSpanID(traceID, v.CtxParent().Index())
			sp.Attributes = append(sp.Attributes, Str("cag.parent_edge", "ctx"))
		case v.MsgParent() != nil:
			sp.ParentSpanID = oracleSpanID(traceID, v.MsgParent().Index())
			sp.Attributes = append(sp.Attributes, Str("cag.parent_edge", "msg"))
		}
		if v.Chan != (activity.Channel{}) {
			sp.Attributes = append(sp.Attributes, Str("net.channel",
				fmt.Sprintf("%s:%d-%s:%d", activity.Syms.Name(v.Chan.Src.IP), v.Chan.Src.Port,
					activity.Syms.Name(v.Chan.Dst.IP), v.Chan.Dst.Port)))
		}
		if v.Size > 0 {
			sp.Attributes = append(sp.Attributes, Int("cag.size_bytes", v.Size))
		}
		if p := v.MsgParent(); p != nil {
			sp.Links = append(sp.Links, Link{
				TraceID:    traceID,
				SpanID:     oracleSpanID(traceID, p.Index()),
				Attributes: []KeyValue{Str("cag.edge", "msg")},
			})
		}
		if i == 0 {
			sp.Attributes = append(sp.Attributes,
				Str("cag.signature", oracleSignature(g)),
				Str("cag.pattern", oraclePatternName(g)),
				Int("cag.latency_ns", g.Latency().Nanoseconds()),
				Int("cag.vertices", int64(g.Len())),
			)
			endNano := sp.EndTimeUnixNano
			forced, late := g.Provenance()
			if forced {
				sp.Events = append(sp.Events, Event{TimeUnixNano: endNano, Name: "cag.forced_seal"})
			}
			if late {
				sp.Events = append(sp.Events, Event{TimeUnixNano: endNano, Name: "cag.late_link"})
			}
		}
		spans = append(spans, sp)
	}
	return Request{ResourceSpans: []ResourceSpans{{
		Resource: Resource{Attributes: []KeyValue{Str("service.name", "precisetracer")}},
		ScopeSpans: []ScopeSpans{{
			Scope: Scope{Name: "repro/internal/export"},
			Spans: spans,
		}},
	}}}
}

// spanEnd is the latest direct-child timestamp, or the vertex's own. The
// children are found by scanning g for vertices whose context or message
// parent is v.
func spanEnd(g *cag.Graph, v *cag.Vertex) int64 {
	end := v.Timestamp
	for i := 0; i < g.Len(); i++ {
		c := g.Vertex(i)
		if (c.CtxParent() == v || c.MsgParent() == v) && c.Timestamp > end {
			end = c.Timestamp
		}
	}
	return end.Nanoseconds()
}

func nanos(n int64) string { return strconv.FormatInt(n, 10) }

func oracleSignature(g *cag.Graph) string {
	var b strings.Builder
	for i := 0; i < g.Len(); i++ {
		v := g.Vertex(i)
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s:%s/%s", v.Type, v.Ctx.Host, v.Ctx.Program)
		if p := v.CtxParent(); p != nil {
			fmt.Fprintf(&b, ":c%d", p.Index())
		}
		if p := v.MsgParent(); p != nil {
			fmt.Fprintf(&b, ":m%d", p.Index())
		}
	}
	return b.String()
}

func oraclePatternName(g *cag.Graph) string {
	var progs []string
	for _, v := range cag.CriticalPath(g) {
		p := v.Ctx.Program
		if n := len(progs); n == 0 || progs[n-1] != p {
			progs = append(progs, p)
		}
	}
	if len(progs) == 0 {
		return "(empty)"
	}
	return strings.Join(progs, ">")
}

func oracleDump(g *cag.Graph) string {
	var b strings.Builder
	for i := 0; i < g.Len(); i++ {
		v := g.Vertex(i)
		fmt.Fprintf(&b, "%3d %-7s t=%-12s %s", i, v.Type, v.Timestamp, oracleContext(v.Ctx))
		if p := v.CtxParent(); p != nil {
			fmt.Fprintf(&b, " c<-%d", p.Index())
		}
		if p := v.MsgParent(); p != nil {
			fmt.Fprintf(&b, " m<-%d", p.Index())
		}
		if v.Size > 0 {
			fmt.Fprintf(&b, " %dB", v.Size)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
