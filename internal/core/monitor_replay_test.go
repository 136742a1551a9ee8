package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/live"
	"repro/internal/rubis"
)

// TestCorrelateDirFeedsMonitorLikeSession pins livemon's replay mode, a
// CorrelateDir pass with a live.Monitor first in the sink chain, to the
// hand-driven session it replaced: the same logs read back, merged by
// timestamp, pushed one by one with a Drain every replayDrainEvery
// records. The graph stream, the monitor's tables and the seal counts
// must be identical, close-driven and with a seal horizon, at 1 and 2
// workers.
func TestCorrelateDirFeedsMonitorLikeSession(t *testing.T) {
	res := fastRun(t, 60, func(c *rubis.Config) { c.Noise = true })
	dir := t.TempDir()
	if err := activity.WriteHostLogs(dir, res.PerHost, false, false); err != nil {
		t.Fatal(err)
	}
	for _, sealAfter := range []time.Duration{0, 50 * time.Millisecond} {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("sealafter=%v workers=%d", sealAfter, workers)
			opts := Options{
				Window:     10 * time.Millisecond,
				EntryPorts: []int{rubis.EntryPort},
				Workers:    workers,
				SealAfter:  sealAfter,
			}
			wantRes, wantGraphs, want := monitoredReplay(t, dir, opts)
			gotRes, gotGraphs, got := monitoredDir(t, dir, opts)
			if wantGraphs.n == 0 {
				t.Fatalf("%s: reference replay emitted no graphs", label)
			}
			if gotRes.ForcedSeals != wantRes.ForcedSeals || gotRes.LateLinks != wantRes.LateLinks {
				t.Fatalf("%s: CorrelateDir forced %d seals and %d late links, session %d and %d", label,
					gotRes.ForcedSeals, gotRes.LateLinks, wantRes.ForcedSeals, wantRes.LateLinks)
			}
			if gotGraphs.n != wantGraphs.n || gotGraphs.sum != wantGraphs.sum {
				t.Fatalf("%s: CorrelateDir emitted %d graphs, session %d, or their streams differ",
					label, gotGraphs.n, wantGraphs.n)
			}
			for _, tbl := range []struct {
				name      string
				got, want string
			}{
				{"Summary", got.Summary(), want.Summary()},
				{"HistoryTable", got.HistoryTable(), want.HistoryTable()},
				{"HostLagTable", got.HostLagTable(), want.HostLagTable()},
			} {
				if tbl.got != tbl.want {
					t.Fatalf("%s: monitor %s differs:\nCorrelateDir:\n%s\nsession:\n%s", label, tbl.name, tbl.got, tbl.want)
				}
			}
		}
	}
}

// graphStream folds every emitted graph's fingerprint, in order.
type graphStream struct {
	n   int
	sum string
}

func (s *graphStream) ConsumeGraph(g *cag.Graph) {
	s.n++
	s.sum += fingerprint(g) + "\n"
}

func newMonitor() *live.Monitor {
	return live.NewMonitor(live.Config{Interval: 200 * time.Millisecond, BaselineIntervals: 2})
}

// monitoredDir is livemon's replay: one CorrelateDir pass, monitor first.
func monitoredDir(t *testing.T, dir string, opts Options) (*Result, *graphStream, *live.Monitor) {
	t.Helper()
	mon, stream := newMonitor(), &graphStream{}
	opts.Sinks = []GraphSink{mon, stream}
	res, err := New(opts).CorrelateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mon.Flush()
	return res, stream, mon
}

// monitoredReplay reads the logs whole and pushes them into a Session in
// timestamp order, draining every replayDrainEvery records.
func monitoredReplay(t *testing.T, dir string, opts Options) (*Result, *graphStream, *live.Monitor) {
	t.Helper()
	perHost, err := activity.ReadHostLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]string, 0, len(perHost))
	for h := range perHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	merged := activity.Merge(perHost)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Timestamp < merged[j].Timestamp })
	mon, stream := newMonitor(), &graphStream{}
	opts.IPToHost = activity.InferIPToHost(merged)
	opts.Sinks = []GraphSink{mon, stream}
	sess, err := NewSession(opts, hosts)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range merged {
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
		if (i+1)%replayDrainEvery == 0 {
			sess.Drain()
		}
	}
	res := sess.Close()
	mon.Flush()
	return res, stream, mon
}
