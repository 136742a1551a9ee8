package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/rubis"
)

// assertEmitted checks a sink stream against the reference graph set:
// non-decreasing in END timestamp, and every reference graph delivered
// exactly once — no duplicates, no drops.
func assertEmitted(t *testing.T, label string, emitted, ref []*cag.Graph) {
	t.Helper()
	last := time.Duration(math.MinInt64)
	for i, g := range emitted {
		end := g.End().Timestamp
		if end < last {
			t.Fatalf("%s: graph %d END %v after %v — emission order regressed", label, i, end, last)
		}
		last = end
	}
	if len(emitted) != len(ref) {
		t.Fatalf("%s: emitted %d graphs, want %d", label, len(emitted), len(ref))
	}
	count := make(map[string]int, len(ref))
	for _, g := range ref {
		count[fingerprint(g)]++
	}
	for _, g := range emitted {
		count[fingerprint(g)]--
	}
	for fp, n := range count {
		if n != 0 {
			t.Fatalf("%s: graph emitted %+d times off the reference — duplicate or drop:\n%s", label, -n, fp)
		}
	}
}

// TestSessionEmitOrderRandomized is the emitter-ordering property test:
// across seeded random interleavings of drains, host closures, pool sizes
// and seal-horizon configurations, on plain traces and on traces with
// §5.3.3 noise (whose never-idle connections are BEGIN-less components
// the watermark must not wait for, sometimes under PaperExactNoise), the
// sink stream must always be non-decreasing in END timestamp and must
// deliver exactly the offline reference set.
//
// The horizons are chosen comfortably above the longest request span, so
// forced seals only ever hit completed components (a mid-request seal
// would legitimately split a CAG and change the set — that tradeoff is
// pinned separately in TestSessionGlobalHorizonSplits).
func TestSessionEmitOrderRandomized(t *testing.T) {
	for _, noise := range []bool{false, true} {
		res := fastRun(t, 40, func(c *rubis.Config) { c.Noise = noise })
		if noise && res.NoiseActivities == 0 {
			t.Fatal("noise trace carries no noise activities")
		}
		hosts := hostsOf(res)
		refs := map[bool][]*cag.Graph{} // by PaperExactNoise
		var maxSpan time.Duration
		for _, exact := range []bool{false, true} {
			opts := options(res)
			opts.PaperExactNoise = exact
			ref, err := New(opts).CorrelateTrace(res.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Graphs) == 0 {
				t.Fatal("reference run produced no graphs")
			}
			refs[exact] = ref.Graphs
			for _, g := range ref.Graphs {
				maxSpan = max(maxSpan, g.End().Timestamp-g.Root().Timestamp)
			}
		}
		// Any horizon above the longest request (plus slack for the coarser
		// online components) seals only finished work.
		safeHorizon := 8*maxSpan + 50*time.Millisecond

		arr := arrivalOrder(res.Trace)
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			opts := options(res)
			opts.Workers = 1 + rng.Intn(4)
			switch rng.Intn(3) {
			case 1:
				opts.SealAfter = safeHorizon
			case 2:
				opts.SealAfter = safeHorizon
				opts.SealAfterByHost = map[string]time.Duration{
					hosts[rng.Intn(len(hosts))]: safeHorizon * time.Duration(2+rng.Intn(3)),
				}
			}
			if noise {
				opts.PaperExactNoise = rng.Intn(2) == 0
			}
			var emitted []*cag.Graph
			opts.Sinks = []GraphSink{GraphSinkFunc(func(g *cag.Graph) { emitted = append(emitted, g) })}
			sess, err := NewSession(opts, hosts)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range arr {
				if err := sess.Push(a); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rng.Intn(32) == 0 {
					sess.Drain()
				}
			}
			// Close the streams in random order, draining in between — the
			// close/seal interleaving the watermark must stay sorted under.
			for _, i := range rng.Perm(len(hosts)) {
				if err := sess.CloseHost(hosts[i]); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rng.Intn(2) == 0 {
					sess.Drain()
				}
			}
			out := sess.Close()
			assertEmitted(t, fmt.Sprintf("noise=%v seed %d (workers=%d sealafter=%v perhost=%v exact=%v lateLinks=%d forcedSeals=%d)",
				noise, seed, opts.Workers, opts.SealAfter, opts.SealAfterByHost, opts.PaperExactNoise, out.LateLinks, out.ForcedSeals),
				emitted, refs[opts.PaperExactNoise])
		}
	}
}

// chattyFusionTrace is the hand-built case the BEGIN-bounded watermark
// must get right. web1's thread 1 talks to app1 every 2 ms for the whole
// run on one connection that carries no BEGIN, so its component never
// idles into a forced seal. Independent one-thread requests arrive every
// 10 ms on other web1 threads. At fuseAt, thread 1 takes a request of its
// own and makes its next exchange on the chatty connection inside it: the
// context epoch fuses the old BEGIN-less component with the new
// BEGIN-holding one. The trace is in merged timestamp order.
func chattyFusionTrace(requests int, fuseAt time.Duration) []*activity.Activity {
	const web, app, client = "10.0.0.1", "10.0.0.2", "10.9.9.9"
	var tr []*activity.Activity
	id := int64(0)
	add := func(typ activity.Type, ts time.Duration, host string, tid int, src, dst string, sp, dp int) {
		id++
		tr = append(tr, mkRaw(id, typ, ts, host, "p", tid, src, dst, sp, dp))
	}
	end := time.Duration(requests) * 10 * time.Millisecond
	for ts := time.Duration(0); ts < end; ts += 2 * time.Millisecond {
		if ts == fuseAt {
			add(activity.Receive, ts-time.Millisecond/2, "web1", 1, client, web, 39999, 80) // BEGIN
		}
		add(activity.Send, ts, "web1", 1, web, app, 5000, 8080)
		add(activity.Receive, ts+100*time.Microsecond, "app1", 1, web, app, 5000, 8080)
		add(activity.Send, ts+500*time.Microsecond, "app1", 1, app, web, 8080, 5000)
		add(activity.Receive, ts+900*time.Microsecond, "web1", 1, app, web, 8080, 5000)
		if ts == fuseAt {
			add(activity.Send, ts+time.Millisecond, "web1", 1, web, client, 80, 39999) // END
		}
	}
	for k := 0; k < requests; k++ {
		ts := time.Duration(k)*10*time.Millisecond + 300*time.Microsecond
		add(activity.Receive, ts, "web1", 100+k, client, web, 40000+k, 80)
		add(activity.Send, ts+time.Millisecond, "web1", 100+k, web, client, 80, 40000+k)
	}
	return arrivalOrder(tr)
}

// TestSessionEmitOrderChattyFusion: a BEGIN-less component held open by
// a chatty connection must not hold back emission, and when it later
// fuses through a context epoch with a BEGIN-holding component the
// stream must stay END-ordered and complete.
func TestSessionEmitOrderChattyFusion(t *testing.T) {
	const requests = 100
	fuseAt := 900 * time.Millisecond
	trace := chattyFusionTrace(requests, fuseAt)
	opts := Options{
		Window:     time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "web1", "10.0.0.2": "app1"},
		SealAfter:  20 * time.Millisecond,
	}
	ref, err := New(opts).CorrelateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Graphs) != requests+1 {
		t.Fatalf("reference has %d graphs, want %d independent requests plus the fused one", len(ref.Graphs), requests+1)
	}
	for _, workers := range []int{1, 2} {
		for _, every := range []int{1, 7} {
			label := fmt.Sprintf("workers=%d drain every %d", workers, every)
			opts.Workers = workers
			var emitted []*cag.Graph
			opts.Sinks = []GraphSink{GraphSinkFunc(func(g *cag.Graph) { emitted = append(emitted, g) })}
			sess, err := NewSession(opts, []string{"app1", "web1"})
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range trace {
				if err := sess.Push(a); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if (i+1)%every == 0 {
					sess.Drain()
				}
			}
			// Everything that ended before the fused request's BEGIN (less
			// one horizon of seal latency) is out before Close; bounding by
			// every component's oldest record would let the chatty one pin
			// it all.
			if before, want := len(emitted), int(fuseAt/(10*time.Millisecond))-5; before < want {
				t.Fatalf("%s: %d graphs released before Close, want >= %d", label, before, want)
			}
			sess.Close()
			assertEmitted(t, label, emitted, ref.Graphs)
		}
	}
}

// sortTaggedRef is the emitter's former whole-backlog sort, kept as the
// reference order the heap must reproduce.
func sortTaggedRef(tagged []taggedGraph) {
	sort.Slice(tagged, func(i, j int) bool {
		ei, ej := tagged[i].g.End(), tagged[j].g.End()
		if ei.Timestamp != ej.Timestamp {
			return ei.Timestamp < ej.Timestamp
		}
		if ei.Ctx.Host != ej.Ctx.Host {
			return ei.Ctx.Host < ej.Ctx.Host
		}
		if a, b := ei.Records[0].ID, ej.Records[0].ID; a != b {
			return a < b
		}
		if tagged[i].comp != tagged[j].comp {
			return tagged[i].comp < tagged[j].comp
		}
		return tagged[i].pos < tagged[j].pos
	})
}

// TestGraphHeapMatchesSort: with ties forced on END timestamp, host and
// record ID, every pop returns exactly the graph the old sort put first
// among those held, under random interleavings of pushes and pops.
func TestGraphHeapMatchesSort(t *testing.T) {
	// Intern the host names against their lexical order, so a heap
	// ordering by symbol value instead of name would fail.
	hostNames := []string{"web9", "web10", "app", "db"}
	for _, h := range hostNames {
		activity.Syms.Intern(h)
	}
	mkTagged := func(rng *rand.Rand, pos int) taggedGraph {
		ctx := activity.Context{Host: hostNames[rng.Intn(len(hostNames))], Program: "p", PID: 1, TID: 1}
		ts := time.Duration(rng.Intn(4))
		begin := &activity.Activity{Type: activity.Begin, Timestamp: ts, Ctx: ctx}
		endRec := &activity.Activity{ID: int64(rng.Intn(3)), Type: activity.End, Timestamp: ts, Ctx: ctx}
		activity.Bind(begin)
		activity.Bind(endRec)
		g := cag.New(cag.NewVertex(begin))
		if err := g.AddVertex(cag.NewVertex(endRec), cag.ContextEdge, g.Root()); err != nil {
			t.Fatal(err)
		}
		if err := g.Finish(); err != nil {
			t.Fatal(err)
		}
		return taggedGraph{g: g, end: ts, comp: rng.Intn(3), pos: pos}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h graphHeap
		var held []taggedGraph
		for step, n := 0, 1+rng.Intn(120); step < n || len(h) > 0; step++ {
			if step < n && (len(h) == 0 || rng.Intn(3) != 0) {
				tg := mkTagged(rng, step)
				h.push(tg)
				held = append(held, tg)
				continue
			}
			sortTaggedRef(held)
			got := h.pop()
			if got != held[0] {
				t.Fatalf("seed %d step %d: heap popped (comp %d pos %d), sort puts (comp %d pos %d) first",
					seed, step, got.comp, got.pos, held[0].comp, held[0].pos)
			}
			held = held[1:]
			if len(h) != len(held) {
				t.Fatalf("seed %d: heap holds %d, want %d", seed, len(h), len(held))
			}
		}
	}
}
