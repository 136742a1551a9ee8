package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/groundtruth"
	"repro/internal/ranker"
	"repro/internal/rubis"
)

func fastRun(t *testing.T, clients int, mutate func(*rubis.Config)) *rubis.Result {
	t.Helper()
	cfg := rubis.DefaultConfig(clients)
	cfg.Scale = 0.01
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func options(res *rubis.Result) Options {
	return Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
	}
}

func TestCorrelateTraceFullAccuracy(t *testing.T) {
	res := fastRun(t, 80, nil)
	out, err := New(options(res)).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() != 1.0 {
		t.Fatalf("accuracy = %v (%v)", rep.PathAccuracy(), rep)
	}
	if rep.FalsePositives() != 0 || rep.FalseNegatives() != 0 {
		t.Fatalf("false positives/negatives: %v", rep)
	}
	if out.Unfinished() != 0 {
		t.Fatalf("unfinished CAGs: %d", out.Unfinished())
	}
	for _, g := range out.Graphs {
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid CAG: %v\n%s", err, cag.Dump(g))
		}
	}
}

func TestCorrelatorIgnoresGroundTruthTags(t *testing.T) {
	// Strip the hidden request tags before correlating: results must be
	// structurally identical — the algorithm is truly black-box.
	res := fastRun(t, 40, nil)
	tagged, err := New(options(res)).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	untagged := make([]*activity.Activity, len(res.Trace))
	for i, a := range res.Trace {
		cp := a.CloneUntagged()
		cp.ID = a.ID
		untagged[i] = cp
	}
	blind, err := New(options(res)).CorrelateTrace(untagged)
	if err != nil {
		t.Fatal(err)
	}
	if len(blind.Graphs) != len(tagged.Graphs) {
		t.Fatalf("CAG count changed without tags: %d vs %d", len(blind.Graphs), len(tagged.Graphs))
	}
	for i := range blind.Graphs {
		if cag.Signature(blind.Graphs[i]) != cag.Signature(tagged.Graphs[i]) {
			t.Fatalf("CAG %d shape changed without tags", i)
		}
	}
}

func TestAccuracyUnderSkewAndWindowSweep(t *testing.T) {
	// §5.2's grid: window 1ms..10s x skew 1ms..500ms, plus noise.
	res := fastRun(t, 60, func(c *rubis.Config) {
		c.Noise = true
		c.Skew.MaxSkew = 500 * time.Millisecond
		c.Skew.DriftPPM = 80
	})
	for _, w := range []time.Duration{time.Millisecond, 100 * time.Millisecond, 10 * time.Second} {
		opts := options(res)
		opts.Window = w
		out, err := New(opts).CorrelateTrace(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Truth.Evaluate(out.Graphs)
		if rep.PathAccuracy() != 1.0 {
			t.Fatalf("window %v: %v", w, rep)
		}
	}
}

func TestNoEntryPortsRejected(t *testing.T) {
	res := fastRun(t, 20, nil)
	_, err := New(Options{Window: time.Millisecond}).CorrelateTrace(res.Trace)
	if err == nil {
		t.Fatal("expected ErrNoEntryPorts")
	}
}

func TestStreamingOutput(t *testing.T) {
	res := fastRun(t, 40, nil)
	var streamed int
	opts := options(res)
	opts.Sinks = []GraphSink{GraphSinkFunc(func(*cag.Graph) { streamed++ })}
	out, err := New(opts).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Graphs) != 0 {
		t.Fatal("accumulator should be empty when streaming")
	}
	if streamed != res.Truth.Requests() {
		t.Fatalf("streamed %d, want %d", streamed, res.Truth.Requests())
	}
}

func TestFilterIntegration(t *testing.T) {
	res := fastRun(t, 40, func(c *rubis.Config) { c.Noise = true })
	opts := options(res)
	opts.Filter = ranker.AttributeFilter{
		DenyPrograms: map[string]bool{"sshd": true, "rlogind": true},
	}.Func()
	out, err := New(opts).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ranker.FilterDropped == 0 {
		t.Fatal("attribute filter never fired on ssh/rlogin noise")
	}
	rep := res.Truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() != 1.0 {
		t.Fatalf("accuracy with filtering: %v", rep)
	}
}

func TestResultAccounting(t *testing.T) {
	res := fastRun(t, 40, nil)
	out, err := New(options(res)).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if out.Activities != len(res.Trace) {
		t.Fatalf("Activities = %d, want %d", out.Activities, len(res.Trace))
	}
	if out.CorrelationTime <= 0 {
		t.Fatal("correlation time not measured")
	}
	if out.PeakBufferedActivities <= 0 || out.PeakResidentVertices <= 0 {
		t.Fatalf("peak accounting missing: %d %d", out.PeakBufferedActivities, out.PeakResidentVertices)
	}
	if out.EstimatedBytes() <= 0 {
		t.Fatal("memory estimate missing")
	}
}

func TestLargerWindowBuffersMore(t *testing.T) {
	res := fastRun(t, 150, nil)
	small, err := New(Options{Window: time.Millisecond, EntryPorts: []int{80}, IPToHost: res.IPToHost}).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(Options{Window: 5 * time.Second, EntryPorts: []int{80}, IPToHost: res.IPToHost}).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if big.PeakBufferedActivities <= small.PeakBufferedActivities {
		t.Fatalf("bigger window should buffer more: %d (1ms) vs %d (5s)",
			small.PeakBufferedActivities, big.PeakBufferedActivities)
	}
}

func TestDefaultWindowApplied(t *testing.T) {
	c := New(Options{EntryPorts: []int{80}})
	if c.opts.Window != 10*time.Millisecond {
		t.Fatalf("default window = %v", c.opts.Window)
	}
}

func TestCorrelateDirStreamsFromDisk(t *testing.T) {
	res := fastRun(t, 60, func(c *rubis.Config) { c.Noise = true })
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		if err := activity.WriteHostLogs(dir, res.PerHost, true, gz); err != nil {
			t.Fatal(err)
		}
		var streamed int
		opts := options(res)
		opts.IPToHost = nil // force topology inference
		opts.Sinks = []GraphSink{GraphSinkFunc(func(*cag.Graph) { streamed++ })}
		out, err := New(opts).CorrelateDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if streamed != res.Truth.Requests() {
			t.Fatalf("gz=%v: streamed %d CAGs, want %d", gz, streamed, res.Truth.Requests())
		}
		if out.Activities != len(res.Trace) {
			t.Fatalf("gz=%v: activities = %d, want %d", gz, out.Activities, len(res.Trace))
		}
		// The streaming pass keeps only the window resident.
		if out.PeakBufferedActivities > len(res.Trace)/4 {
			t.Fatalf("gz=%v: streaming buffered %d of %d activities", gz,
				out.PeakBufferedActivities, len(res.Trace))
		}
	}
}

func TestCorrelateDirAccuracyMatchesInMemory(t *testing.T) {
	res := fastRun(t, 40, nil)
	dir := t.TempDir()
	if err := activity.WriteHostLogs(dir, res.PerHost, true, false); err != nil {
		t.Fatal(err)
	}
	opts := options(res)
	opts.IPToHost = nil
	out, err := New(opts).CorrelateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild truth from the files (IDs are reassigned by read order).
	perHost, err := activity.ReadHostLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	truth := groundtruth.FromTrace(activity.Merge(perHost))
	rep := truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() != 1.0 {
		t.Fatalf("dir accuracy: %v", rep)
	}
}

func TestCorrelateDirErrors(t *testing.T) {
	if _, err := New(Options{EntryPorts: []int{80}}).CorrelateDir(t.TempDir()); err == nil {
		t.Fatal("empty dir should fail")
	}
	if _, err := New(Options{}).CorrelateDir(t.TempDir()); err == nil {
		t.Fatal("missing entry ports should fail")
	}
}

// TestCorrelateDirTieEarlierFileFirst pins CorrelateDir's merge tie rule:
// on equal timestamps the record of the earlier file (in sorted file-name
// order) is pushed first. A log may carry records of a host other than
// its file's (the replay declares that host on the fly), so two files can
// feed one host's stream: here a.trace holds web1's BEGIN and b.trace its
// END, both at 1ms. Earlier-file-first keeps BEGIN before END and yields
// the one-request graph; the other tie order would hand web1's END to the
// engine before its BEGIN.
func TestCorrelateDirTieEarlierFileFirst(t *testing.T) {
	dir := t.TempDir()
	begin := mkRaw(0, activity.Receive, time.Millisecond, "web1", "httpd", 1, "10.9.9.9", "10.0.0.1", 40000, 80)
	end := mkRaw(0, activity.Send, time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, 40000)
	for name, a := range map[string]*activity.Activity{"a.trace": begin, "b.trace": end} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(activity.FormatRecord(a, false)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := New(Options{
		Window:     time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "web1"},
	}).CorrelateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Graphs) != 1 {
		t.Fatalf("got %d graphs, want the one web1 request", len(out.Graphs))
	}
	got := cag.Dump(out.Graphs[0])
	if b, e := strings.Index(got, "BEGIN"), strings.Index(got, "END"); b < 0 || e < b {
		t.Fatalf("dump does not run BEGIN then END:\n%s", got)
	}
}

// A malformed line in one host's log fails the pass with an error naming
// that host, without correlating the rest of the directory. IPToHost is
// set, so no topology inference runs: the merge loop is what reads the
// broken line. It sits first in app1's log, so the pass fails before any
// graph could be emitted.
func TestCorrelateDirMalformedLine(t *testing.T) {
	res := fastRun(t, 10, nil)
	dir := t.TempDir()
	if err := activity.WriteHostLogs(dir, res.PerHost, false, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, activity.HostLogName("app1", false))
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("not a record\n"), log...), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := options(res)
	emitted := 0
	opts.Sinks = []GraphSink{GraphSinkFunc(func(*cag.Graph) { emitted++ })}
	_, err = New(opts).CorrelateDir(dir)
	if err == nil || !strings.HasPrefix(err.Error(), "core: app1: ") {
		t.Fatalf("CorrelateDir error = %v, want one naming host app1", err)
	}
	if emitted != 0 {
		t.Fatalf("%d graphs emitted by a pass that failed on its first record", emitted)
	}
}
