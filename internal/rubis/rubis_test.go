package rubis

import (
	"testing"
	"time"

	"repro/internal/activity"
)

// txByName returns the named transaction, or nil.
func txByName(name string) *Transaction {
	for i := range Transactions {
		if Transactions[i].Name == name {
			return &Transactions[i]
		}
	}
	return nil
}

// fastConfig returns a scaled-down run for unit tests.
func fastConfig(clients int) Config {
	cfg := DefaultConfig(clients)
	cfg.Scale = 0.01 // ~6.3s virtual session
	return cfg
}

func TestRunCompletesRequests(t *testing.T) {
	res, err := Run(fastConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalCompleted == 0 {
		t.Fatal("no requests completed")
	}
	if res.Metrics.Issued != res.Metrics.TotalCompleted {
		t.Fatalf("issued %d != completed %d (requests lost)", res.Metrics.Issued, res.Metrics.TotalCompleted)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no activities logged")
	}
	if res.Truth.Requests() == 0 {
		t.Fatal("truth table empty")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(fastConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.TotalCompleted != b.Metrics.TotalCompleted {
		t.Fatalf("completed differ: %d vs %d", a.Metrics.TotalCompleted, b.Metrics.TotalCompleted)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		x, y := a.Trace[i], b.Trace[i]
		if x.Timestamp != y.Timestamp || x.Type != y.Type || x.Ctx != y.Ctx || x.Chan != y.Chan {
			t.Fatalf("trace diverges at %d: %v vs %v", i, x, y)
		}
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := fastConfig(30)
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if len(a.Trace) == len(b.Trace) && a.Metrics.TotalCompleted == b.Metrics.TotalCompleted {
		// Extremely unlikely to match exactly on both if seeds differ.
		same := true
		for i := range a.Trace {
			if i >= len(b.Trace) || a.Trace[i].Timestamp != b.Trace[i].Timestamp {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestThroughputScalesWithClients(t *testing.T) {
	small, _ := Run(fastConfig(50))
	big, _ := Run(fastConfig(200))
	if big.Metrics.Throughput() < 2*small.Metrics.Throughput() {
		t.Fatalf("throughput should scale ~linearly below saturation: 50=%v 200=%v",
			small.Metrics.Throughput(), big.Metrics.Throughput())
	}
}

func TestSaturationRaisesResponseTime(t *testing.T) {
	cfg := fastConfig(200)
	cfg.Scale = 0.02
	low, _ := Run(cfg)
	cfgHi := fastConfig(950)
	cfgHi.Scale = 0.02
	hi, _ := Run(cfgHi)
	if hi.Metrics.AvgResponseTime() < 3*low.Metrics.AvgResponseTime() {
		t.Fatalf("MaxThreads=40 at 950 clients should inflate RT: low=%v hi=%v",
			low.Metrics.AvgResponseTime(), hi.Metrics.AvgResponseTime())
	}
	// Raising MaxThreads removes the bottleneck (§5.4.1's fix).
	cfgFix := cfgHi
	cfgFix.MaxThreads = 250
	fixed, _ := Run(cfgFix)
	if fixed.Metrics.AvgResponseTime() > hi.Metrics.AvgResponseTime()/2 {
		t.Fatalf("MaxThreads=250 should cut RT: 40=>%v 250=>%v",
			hi.Metrics.AvgResponseTime(), fixed.Metrics.AvgResponseTime())
	}
	if fixed.Metrics.Throughput() < hi.Metrics.Throughput() {
		t.Fatalf("MaxThreads=250 should not lose throughput: 40=>%v 250=>%v",
			hi.Metrics.Throughput(), fixed.Metrics.Throughput())
	}
}

func TestTracingDisabledLogsNothing(t *testing.T) {
	cfg := fastConfig(30)
	cfg.Tracing = false
	res, _ := Run(cfg)
	if len(res.Trace) != 0 {
		t.Fatalf("tracing disabled but %d activities logged", len(res.Trace))
	}
	if res.Metrics.TotalCompleted == 0 {
		t.Fatal("workload should still run")
	}
}

func TestTracingOverheadSmall(t *testing.T) {
	on := fastConfig(300)
	on.Scale = 0.02
	off := on
	off.Tracing = false
	ron, _ := Run(on)
	roff, _ := Run(off)
	tOn, tOff := ron.Metrics.Throughput(), roff.Metrics.Throughput()
	drop := (tOff - tOn) / tOff
	if drop > 0.05 {
		t.Fatalf("throughput overhead %.1f%% exceeds the paper's ~3.7%% bound region (on=%v off=%v)",
			drop*100, tOn, tOff)
	}
	rtRatio := float64(ron.Metrics.AvgResponseTime()) / float64(roff.Metrics.AvgResponseTime())
	if rtRatio > 1.3 {
		t.Fatalf("response-time overhead %.2fx exceeds the paper's <30%% bound", rtRatio)
	}
}

func TestNoiseTagging(t *testing.T) {
	cfg := fastConfig(30)
	cfg.Noise = true
	res, _ := Run(cfg)
	if res.NoiseActivities == 0 {
		t.Fatal("noise enabled but no noise activities")
	}
	// Noise must not appear in the truth table.
	seen := 0
	for _, a := range res.Trace {
		if a.ReqID < 0 {
			seen++
		}
	}
	if seen != res.NoiseActivities {
		t.Fatalf("noise accounting mismatch: %d vs %d", seen, res.NoiseActivities)
	}
}

func TestMixSelectsTransactions(t *testing.T) {
	cfg := fastConfig(100)
	cfg.Mix = BrowseOnly
	res, _ := Run(cfg)
	for name := range res.Metrics.PerTx {
		tx := txByName(name)
		if tx == nil {
			t.Fatalf("unknown transaction %q", name)
		}
		if tx.BrowseWeight == 0 {
			t.Fatalf("browse-only run executed %q", name)
		}
	}
	cfg.Mix = Default
	res, _ = Run(cfg)
	wrote := false
	for name := range res.Metrics.PerTx {
		if tx := txByName(name); tx != nil && tx.DefaultWeight > 0 && tx.BrowseWeight == 0 {
			wrote = true
		}
	}
	if !wrote {
		t.Fatal("default mix never executed a write transaction")
	}
}

func TestPerHostLogsOrdered(t *testing.T) {
	cfg := fastConfig(100)
	cfg.Skew.MaxSkew = 200 * time.Millisecond
	res, _ := Run(cfg)
	for host, log := range res.PerHost {
		for i := 1; i < len(log); i++ {
			if log[i].Timestamp < log[i-1].Timestamp {
				t.Fatalf("%s log out of local-clock order at %d", host, i)
			}
		}
	}
}

func TestActivityShapes(t *testing.T) {
	res, _ := Run(fastConfig(30))
	types := map[activity.Type]int{}
	for _, a := range res.Trace {
		types[a.Type]++
		if a.Ctx.Host == "" || activity.Syms.Name(a.Chan.Src.IP) == "" || a.Size <= 0 {
			t.Fatalf("malformed activity %v", a)
		}
	}
	// Raw TCP_TRACE logs only SEND/RECEIVE; BEGIN/END appear after
	// classification.
	if types[activity.Begin] != 0 || types[activity.End] != 0 {
		t.Fatalf("raw trace contains classified types: %v", types)
	}
	if types[activity.Send] == 0 || types[activity.Receive] == 0 {
		t.Fatalf("trace missing SEND/RECEIVE: %v", types)
	}
}

func TestFaultEJBDelayInflatesRT(t *testing.T) {
	base := fastConfig(100)
	res0, _ := Run(base)
	faulty := base
	faulty.Faults.EJBDelay = 40 * time.Millisecond
	res1, _ := Run(faulty)
	if res1.Metrics.AvgResponseTime() < res0.Metrics.AvgResponseTime()+20*time.Millisecond {
		t.Fatalf("EJB delay should inflate RT: %v vs %v",
			res0.Metrics.AvgResponseTime(), res1.Metrics.AvgResponseTime())
	}
}

func TestFaultDBLockSerialisesQueries(t *testing.T) {
	base := fastConfig(200)
	base.Mix = Default
	res0, _ := Run(base)
	faulty := base
	faulty.Faults.DBLock = true
	faulty.Faults.DBLockHold = 4 * time.Millisecond
	res1, _ := Run(faulty)
	if res1.Metrics.AvgResponseTime() <= res0.Metrics.AvgResponseTime() {
		t.Fatalf("DB lock should inflate RT: %v vs %v",
			res0.Metrics.AvgResponseTime(), res1.Metrics.AvgResponseTime())
	}
}

func TestFaultNetworkSlowsAppLegs(t *testing.T) {
	base := fastConfig(100)
	res0, _ := Run(base)
	faulty := base
	faulty.Faults.AppNetBandwidth = 1_250_000 // 10 Mbps
	res1, _ := Run(faulty)
	if res1.Metrics.AvgResponseTime() <= res0.Metrics.AvgResponseTime() {
		t.Fatalf("10M NIC should inflate RT: %v vs %v",
			res0.Metrics.AvgResponseTime(), res1.Metrics.AvgResponseTime())
	}
}

func TestClientsExceedingWorkersRejected(t *testing.T) {
	cfg := fastConfig(100)
	cfg.HttpdWorkers = 10
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error when clients exceed workers")
	}
}

func TestTransactionTableSane(t *testing.T) {
	browse, def := 0.0, 0.0
	for _, tx := range Transactions {
		if tx.Name == "" {
			t.Fatal("unnamed transaction")
		}
		if !tx.Static && tx.Queries <= 0 {
			t.Fatalf("%s: dynamic transaction without queries", tx.Name)
		}
		if tx.Static && tx.Queries != 0 {
			t.Fatalf("%s: static transaction with queries", tx.Name)
		}
		if tx.ReqSize <= 0 || tx.RespSize <= 0 {
			t.Fatalf("%s: missing message sizes", tx.Name)
		}
		browse += tx.BrowseWeight
		def += tx.DefaultWeight
	}
	if browse <= 0 || def <= 0 {
		t.Fatal("mix weights must be positive in both mixes")
	}
	if txByName("ViewItem") == nil {
		t.Fatal("ViewItem missing (§5.4.1 analyses it)")
	}
}

func TestMetricsWindow(t *testing.T) {
	m := newMetrics(10*time.Second, 20*time.Second)
	tx := &Transactions[0]
	m.record(tx, 100*time.Millisecond, 5*time.Second)  // before window
	m.record(tx, 200*time.Millisecond, 15*time.Second) // in window
	m.record(tx, 300*time.Millisecond, 25*time.Second) // after window
	if m.TotalCompleted != 3 || m.InWindow != 1 {
		t.Fatalf("total=%d window=%d", m.TotalCompleted, m.InWindow)
	}
	if m.AvgResponseTime() != 200*time.Millisecond {
		t.Fatalf("window avg = %v", m.AvgResponseTime())
	}
	if m.Throughput() != 0.1 {
		t.Fatalf("throughput = %v, want 0.1/s", m.Throughput())
	}
	if m.TxAvgResponseTime(tx.Name) != 200*time.Millisecond {
		t.Fatalf("tx avg = %v", m.TxAvgResponseTime(tx.Name))
	}
}

func TestHighLoadNoHungRequests(t *testing.T) {
	// Regression: a stale backend idle timer (re-armed by a static request,
	// never cancelled) used to close a successor connection while its
	// request was still waiting for a servlet thread, hanging the request.
	cfg := fastConfig(1000)
	cfg.Scale = 0.02
	cfg.Noise = true
	cfg.Skew.MaxSkew = 500 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Issued != res.Metrics.TotalCompleted {
		t.Fatalf("hung requests: issued=%d completed=%d",
			res.Metrics.Issued, res.Metrics.TotalCompleted)
	}
}

func TestResponseTimePercentiles(t *testing.T) {
	res, _ := Run(fastConfig(100))
	p50 := res.Metrics.ResponseTimePercentile(0.50)
	p99 := res.Metrics.ResponseTimePercentile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("percentiles p50=%v p99=%v", p50, p99)
	}
	if avg := res.Metrics.AvgResponseTime(); p50 > 2*avg {
		t.Fatalf("p50 %v wildly above mean %v", p50, avg)
	}
}

func TestMarkovSessionsAffinity(t *testing.T) {
	cfg := fastConfig(200)
	cfg.Scale = 0.03
	cfg.MarkovSessions = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All executed transactions must still come from the mix.
	for name := range res.Metrics.PerTx {
		tx := txByName(name)
		if tx == nil || tx.BrowseWeight == 0 {
			t.Fatalf("markov run executed out-of-mix transaction %q", name)
		}
	}
	// ViewItem stays the most frequent dynamic transaction (stationary
	// distribution preserved), and accuracy is untouched by the mode.
	if res.Metrics.PerTx["ViewItem"] == 0 {
		t.Fatal("ViewItem never ran")
	}
	iid := fastConfig(200)
	iid.Scale = 0.03
	res2, _ := Run(iid)
	a, b := res.Metrics.TotalCompleted, res2.Metrics.TotalCompleted
	if a < b*8/10 || a > b*12/10 {
		t.Fatalf("markov mode changed load shape too much: %d vs %d", a, b)
	}
}

func TestClosedLoopResponseTimeLaw(t *testing.T) {
	// Model-based validation of the workload substrate: a closed
	// interactive system must obey X = N / (Z + R) in steady state
	// (the interactive response-time law). Measured throughput and
	// response time over the runtime window must reconcile with the
	// client population within a few percent.
	cfg := fastConfig(400)
	cfg.Scale = 0.05 // longer window for a stable average
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(cfg.Clients)
	z := cfg.ThinkTime.Seconds()
	r := res.Metrics.AvgResponseTime().Seconds()
	predicted := n / (z + r)
	measured := res.Metrics.Throughput()
	ratio := measured / predicted
	if ratio < 0.93 || ratio > 1.07 {
		t.Fatalf("response-time law violated: measured %.1f/s vs predicted %.1f/s (ratio %.3f)",
			measured, predicted, ratio)
	}
}

func TestThreadPoolUtilisationModel(t *testing.T) {
	// The MaxThreads=40 knee is governed by thread-seconds per request
	// (service time + idle hold). Below the knee, offered thread
	// utilisation must stay under capacity; this pins the calibration the
	// experiments depend on.
	cfg := fastConfig(500)
	cfg.Scale = 0.05
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lambda := res.Metrics.Throughput()
	// Static requests never touch the pool.
	staticFrac := 0.0
	if res.Metrics.TotalCompleted > 0 {
		staticFrac = float64(res.Metrics.PerTx["Home"]) / float64(res.Metrics.TotalCompleted)
	}
	holdSeconds := cfg.BackendIdleHold.Seconds() + 0.03 // idle hold + active phase
	offered := lambda * (1 - staticFrac) * holdSeconds
	if offered >= float64(cfg.MaxThreads) {
		t.Fatalf("calibration drifted: offered thread-load %.1f >= MaxThreads %d at 500 clients",
			offered, cfg.MaxThreads)
	}
	if offered < float64(cfg.MaxThreads)/4 {
		t.Fatalf("calibration drifted: offered thread-load %.1f implausibly low", offered)
	}
}
