package repro_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/rubis"
)

// sessionReplay pushes arr, the trace in global timestamp order, through
// an online Session with periodic drains — the unified push path every
// execution mode now runs on.
func sessionReplay(tb testing.TB, res *rubis.Result, hosts []string, arr []*activity.Activity, workers int, sealAfter time.Duration) {
	tb.Helper()
	sess, err := core.NewSession(core.Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
		Workers:    workers,
		SealAfter:  sealAfter,
		Sinks:      []core.GraphSink{core.GraphSinkFunc(func(*cag.Graph) {})},
	}, hosts)
	if err != nil {
		tb.Fatal(err)
	}
	for i, a := range arr {
		if err := sess.Push(a); err != nil {
			tb.Fatal(err)
		}
		if (i+1)%256 == 0 {
			sess.Drain()
		}
	}
	out := sess.Close()
	if out.Activities != len(arr) {
		tb.Fatalf("replayed %d activities, want %d", out.Activities, len(arr))
	}
}

// BenchmarkSessionPush measures the unified push path end to end (push +
// periodic drain + close), reported in ns per pushed activity — the
// figure to watch when touching stream.go's ingest/seal/emit stages.
func BenchmarkSessionPush(b *testing.B) {
	cfg := rubis.DefaultConfig(300)
	cfg.Scale = 0.05
	res, err := rubis.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The input is sorted once here, outside every timed loop: the figure
	// is the session's work, not the harness's.
	hosts := make([]string, 0, len(res.PerHost))
	for h := range res.PerHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	arr := make([]*activity.Activity, len(res.Trace))
	copy(arr, res.Trace)
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Timestamp < arr[j].Timestamp })
	for _, bc := range []struct {
		name      string
		workers   int
		sealAfter time.Duration
	}{
		{"seq-close-driven", 1, 0},
		{"seq-continuous", 1, 250 * time.Millisecond},
		{"sharded-continuous", 4, 250 * time.Millisecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				sessionReplay(b, res, hosts, arr, bc.workers, bc.sealAfter)
			}
			perAct := float64(time.Since(start).Nanoseconds()) / float64(b.N*len(res.Trace))
			b.ReportMetric(perAct, "ns/activity")
		})
	}
}
