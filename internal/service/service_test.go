package service

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/testbed"
)

// threeTier is a representative hand-written spec.
func threeTier() Spec {
	return Spec{
		Tiers: []TierSpec{
			{Program: "front", Port: 80, Kind: ProcessPerConnection, Cores: 2,
				Demand: 2 * time.Millisecond, PostDemand: time.Millisecond, Calls: 1,
				RequestSize: 300, ReplySize: 4000},
			{Program: "mid", Port: 9000, Kind: ThreadPerConnection, PoolSize: 20, Cores: 2,
				Demand: 3 * time.Millisecond, PostDemand: 2 * time.Millisecond, Calls: 2,
				RequestSize: 600, ReplySize: 3000},
			{Program: "store", Port: 9001, Kind: ThreadPerConnection, PoolSize: 40, Cores: 2,
				Demand: 2 * time.Millisecond, PostDemand: 0,
				RequestSize: 200, ReplySize: 1500},
		},
		Clients:   20,
		ThinkTime: 200 * time.Millisecond,
		Duration:  4 * time.Second,
		Net:       testbed.NetConfig{Latency: 100 * time.Microsecond, Bandwidth: 12_500_000, MSS: 1448, RecvChunk: 1800},
		IdleHold:  30 * time.Millisecond,
		Seed:      1,
	}
}

func correlateService(t *testing.T, res *Result, window time.Duration) float64 {
	t.Helper()
	out, err := core.New(core.Options{
		Window:     window,
		EntryPorts: []int{res.EntryPort},
		IPToHost:   res.IPToHost,
	}).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return res.Truth.Evaluate(out.Graphs).PathAccuracy()
}

func TestThreeTierFullAccuracy(t *testing.T) {
	res, err := Run(threeTier())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if acc := correlateService(t, res, 10*time.Millisecond); acc != 1.0 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestTwoTierIterativeServer(t *testing.T) {
	// Single-tier service: the §2 iterative/process-per-connection model.
	spec := Spec{
		Tiers: []TierSpec{
			{Program: "srv", Port: 80, Kind: ProcessPerConnection, Cores: 1,
				Demand: time.Millisecond, PostDemand: 500 * time.Microsecond,
				RequestSize: 100, ReplySize: 900},
		},
		Clients:  5,
		Duration: 2 * time.Second,
		Seed:     3,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if acc := correlateService(t, res, time.Millisecond); acc != 1.0 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestDeepPipelineFiveTiers(t *testing.T) {
	tiers := []TierSpec{
		{Program: "t0", Port: 80, Kind: ProcessPerConnection, Cores: 2, Demand: time.Millisecond, Calls: 1, RequestSize: 200, ReplySize: 2000},
		{Program: "t1", Port: 9001, Kind: ThreadPerConnection, PoolSize: 16, Cores: 2, Demand: time.Millisecond, Calls: 1, RequestSize: 300, ReplySize: 1500},
		{Program: "t2", Port: 9002, Kind: ThreadPerConnection, PoolSize: 16, Cores: 2, Demand: time.Millisecond, Calls: 2, RequestSize: 300, ReplySize: 1200},
		{Program: "t3", Port: 9003, Kind: ThreadPerConnection, PoolSize: 24, Cores: 2, Demand: time.Millisecond, Calls: 1, RequestSize: 250, ReplySize: 1000},
		{Program: "t4", Port: 9004, Kind: ThreadPerConnection, PoolSize: 32, Cores: 2, Demand: time.Millisecond, RequestSize: 200, ReplySize: 800},
	}
	spec := Spec{
		Tiers: tiers, Clients: 12, ThinkTime: 150 * time.Millisecond,
		Duration: 3 * time.Second, IdleHold: 20 * time.Millisecond,
		Net:  testbed.NetConfig{Latency: 80 * time.Microsecond, MSS: 1000, RecvChunk: 700},
		Skew: clock.SkewScenario{MaxSkew: 300 * time.Millisecond},
		Seed: 7,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if acc := correlateService(t, res, 5*time.Millisecond); acc != 1.0 {
		t.Fatalf("5-tier accuracy = %v", acc)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []Spec{
		{},                      // no tiers
		{Tiers: []TierSpec{{}}}, // no clients
		{Tiers: []TierSpec{{Program: "x", Port: 80, Kind: ThreadPerConnection, Calls: 1}}, Clients: 1}, // last tier calls downstream
		{Tiers: []TierSpec{{Program: "x", Kind: ThreadPerConnection}}, Clients: 1},                     // no port
		{Tiers: []TierSpec{{Program: "x", Port: 80}}, Clients: 1},                                      // no kind
	}
	for i, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
	if err := threeTier().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestPropertyRandomTopologies is the §2 generality claim as a property
// test: any random pipeline of the supported concurrency models, with
// random fan-out, pool sizes, segmentation and clock skew, must correlate
// at exactly 100% path accuracy.
func TestPropertyRandomTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		nTiers := 2 + rng.Intn(3) // 2..4
		var tiers []TierSpec
		for i := 0; i < nTiers; i++ {
			kind := ThreadPerConnection
			if i == 0 || rng.Intn(3) == 0 {
				kind = ProcessPerConnection
			}
			calls := 0
			if i < nTiers-1 {
				calls = 1 + rng.Intn(3)
			}
			tiers = append(tiers, TierSpec{
				Program: string(rune('a'+i)) + "svc",
				Port:    8000 + i,
				Kind:    kind,
				// Small pools force heavy entity recycling.
				PoolSize:    4 + rng.Intn(12),
				Cores:       1 + rng.Intn(3),
				Demand:      time.Duration(200+rng.Intn(2000)) * time.Microsecond,
				PostDemand:  time.Duration(rng.Intn(1000)) * time.Microsecond,
				Calls:       calls,
				RequestSize: int64(100 + rng.Intn(1200)),
				ReplySize:   int64(200 + rng.Intn(6000)),
			})
		}
		spec := Spec{
			Tiers:     tiers,
			Clients:   5 + rng.Intn(20),
			ThinkTime: time.Duration(50+rng.Intn(250)) * time.Millisecond,
			Duration:  2 * time.Second,
			IdleHold:  time.Duration(5+rng.Intn(60)) * time.Millisecond,
			Net: testbed.NetConfig{
				Latency:   time.Duration(20+rng.Intn(400)) * time.Microsecond,
				Bandwidth: 12_500_000,
				MSS:       400 + rng.Intn(1200),
				RecvChunk: 300 + rng.Intn(1800),
			},
			Skew: clock.SkewScenario{
				MaxSkew:  time.Duration(rng.Intn(500)) * time.Millisecond,
				DriftPPM: float64(rng.Intn(200)),
			},
			Seed: seed,
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Completed == 0 {
			t.Fatalf("seed %d: nothing completed", seed)
		}
		window := time.Duration(1+rng.Intn(100)) * time.Millisecond
		if acc := correlateService(t, res, window); acc != 1.0 {
			t.Fatalf("seed %d (%d tiers, %d clients, window %v, skew %v): accuracy = %v",
				seed, nTiers, spec.Clients, window, spec.Skew.MaxSkew, acc)
		}
	}
}

func TestResultFields(t *testing.T) {
	res, err := Run(threeTier())
	if err != nil {
		t.Fatal(err)
	}
	if res.EntryPort != 80 {
		t.Fatalf("entry port = %d", res.EntryPort)
	}
	if len(res.IPToHost) != 3 {
		t.Fatalf("traced hosts = %d", len(res.IPToHost))
	}
	if res.Truth.Requests() != res.Completed {
		t.Fatalf("truth %d != completed %d", res.Truth.Requests(), res.Completed)
	}
	// All trace activities belong to traced tier nodes.
	for _, a := range res.Trace {
		if _, ok := map[string]bool{"tier0": true, "tier1": true, "tier2": true}[a.Ctx.Host]; !ok {
			t.Fatalf("unexpected host %q", a.Ctx.Host)
		}
	}
}

func TestPersistentConnections(t *testing.T) {
	// IdleHold < 0 keeps downstream connections (and their entities) for
	// the whole run: thread reuse across requests on ONE connection.
	spec := threeTier()
	spec.IdleHold = -1
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if acc := correlateService(t, res, 10*time.Millisecond); acc != 1.0 {
		t.Fatalf("persistent-conn accuracy = %v", acc)
	}
}
