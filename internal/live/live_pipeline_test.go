package live

import (
	"sort"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/core"
	"repro/internal/rubis"
)

// TestMonitorFedByShardedPipeline drives the monitor from the concurrent
// correlator's sink stream (the livemon -workers >1 path) and checks
// that the interval history matches a sequential push-mode session feed:
// the pipeline's END-timestamp merge order satisfies Ingest's ordering
// contract, so bucketing, baselines and alerts must not change.
func TestMonitorFedByShardedPipeline(t *testing.T) {
	cfg := rubis.DefaultConfig(120)
	cfg.Scale = 0.03
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	monitorCfg := Config{
		Interval:          2 * time.Second,
		BaselineIntervals: 2,
		MinRequests:       5,
	}
	feed := func(workers int) *Monitor {
		m := NewMonitor(monitorCfg)
		out, err := core.New(core.Options{
			Window:     10 * time.Millisecond,
			EntryPorts: []int{rubis.EntryPort},
			IPToHost:   res.IPToHost,
			Workers:    workers,
			Sinks:      []core.GraphSink{m},
		}).CorrelateTrace(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Graphs) != 0 {
			t.Fatalf("sink mode accumulated %d graphs", len(out.Graphs))
		}
		m.Flush()
		return m
	}

	sst := feed(1).Stats()
	pst := feed(4).Stats()

	if sst.Ingested == 0 {
		t.Fatal("sequential feed ingested nothing")
	}
	if pst.Ingested != sst.Ingested {
		t.Fatalf("ingested %d graphs via pipeline, %d sequentially", pst.Ingested, sst.Ingested)
	}
	if pst.Intervals != sst.Intervals {
		t.Fatalf("closed %d intervals via pipeline, %d sequentially", pst.Intervals, sst.Intervals)
	}
	sh, ph := sst.History, pst.History
	for i := range sh {
		if sh[i] != ph[i] {
			t.Fatalf("interval %d differs:\npipeline   %+v\nsequential %+v", i, ph[i], sh[i])
		}
	}
	if len(pst.Alerts) != len(sst.Alerts) {
		t.Fatalf("pipeline raised %d alerts, sequential %d", len(pst.Alerts), len(sst.Alerts))
	}
}

// TestMonitorFedByContinuousSession is the always-on deployment the
// continuous mode exists for (livemon -sealafter): a sharded session over
// a real RUBiS workload, whose agents never close their streams, must
// feed the monitor CAGs mid-run — and the monitor must see them in
// END-timestamp order when the liveness bound holds.
func TestMonitorFedByContinuousSession(t *testing.T) {
	cfg := rubis.DefaultConfig(120)
	cfg.Scale = 0.03
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(Config{Interval: 2 * time.Second, BaselineIntervals: 2, MinRequests: 5})
	var hosts []string
	for h := range res.PerHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	sess, err := core.NewSession(core.Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
		Workers:    4,
		SealAfter:  500 * time.Millisecond,
		Sinks:      []core.GraphSink{m},
	}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]*activity.Activity, len(res.Trace))
	copy(merged, res.Trace)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Timestamp < merged[j].Timestamp })
	for i, a := range merged {
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
		if (i+1)%256 == 0 {
			sess.Drain()
		}
	}
	sess.Drain()
	midIngested := m.Stats().Ingested
	if midIngested == 0 {
		t.Fatal("continuous session fed the monitor nothing before any stream closed")
	}
	out := sess.Close()
	m.Flush()
	if out.ForcedSeals == 0 {
		t.Fatal("no forced seals on a forever-open RUBiS run")
	}
	st := m.Stats()
	if st.Ingested == 0 || st.Intervals == 0 {
		t.Fatalf("monitor saw %d CAGs over %d intervals", st.Ingested, st.Intervals)
	}
	t.Logf("mid-run ingested %d/%d CAGs; %d forced seals, %d late links, %d out-of-order",
		midIngested, st.Ingested, out.ForcedSeals, out.LateLinks, st.OutOfOrder)
}
