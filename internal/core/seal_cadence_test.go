package core

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/rubis"
)

// cadenceRun is what TestSealsIndependentOfDrainCadence compares across
// runs: the hash of the emitted cag.Dump stream and the seal counters.
type cadenceRun struct {
	hash        uint64
	graphs      int
	shards      int
	forcedSeals int
}

func (r cadenceRun) String() string {
	return fmt.Sprintf("hash %016x graphs %d shards %d forced %d", r.hash, r.graphs, r.shards, r.forcedSeals)
}

// dumpHasher hashes every graph it consumes, in emission order.
type dumpHasher struct {
	h hash.Hash64
	n int
}

func newDumpHasher() *dumpHasher { return &dumpHasher{h: fnv.New64a()} }

func (d *dumpHasher) ConsumeGraph(g *cag.Graph) {
	d.h.Write([]byte(cag.Dump(g)))
	d.n++
}

func (d *dumpHasher) run(res *Result) cadenceRun {
	return cadenceRun{hash: d.h.Sum64(), graphs: d.n, shards: res.Shards, forcedSeals: res.ForcedSeals}
}

// TestSealsIndependentOfDrainCadence: which components exist must follow
// from the record stream alone. One RUBiS trace, pushed in the order the
// ingest front restores (timestamp, then host name), is fed to a SealAfter
// session that drains every 1, 7, 64, 256 or 1024 pushes or at seeded
// random points, at pool sizes 1 and 2, and through core.Ingest with two
// DrainEvery cadences plus a wall-clock FlushInterval. The horizon is
// shorter than the generator's backend keep-alive hold, so idle
// components meet continuations on reused connections — the case where a
// seal evaluated only at Drain let a continuation fuse into a component
// that was already stale. Every run must emit the same cag.Dump stream
// and count the same Shards and ForcedSeals.
func TestSealsIndependentOfDrainCadence(t *testing.T) {
	cfg := rubis.DefaultConfig(120)
	cfg.Scale = 0.05
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := make([]*activity.Activity, len(res.Trace))
	copy(trace, res.Trace)
	sort.SliceStable(trace, func(i, j int) bool {
		if trace[i].Timestamp != trace[j].Timestamp {
			return trace[i].Timestamp < trace[j].Timestamp
		}
		return trace[i].Ctx.Host < trace[j].Ctx.Host
	})
	hosts := hostsOf(res)
	opts := func(workers int, d *dumpHasher) Options {
		o := options(res)
		o.SealAfter = 100 * time.Millisecond
		o.Workers = workers
		o.Sinks = []GraphSink{d}
		return o
	}

	session := func(workers int, drainAt func(i int) bool) cadenceRun {
		d := newDumpHasher()
		sess, err := NewSession(opts(workers, d), hosts)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range trace {
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
			if drainAt(i) {
				sess.Drain()
			}
		}
		return d.run(sess.Close())
	}
	ingest := func(workers, drainEvery int) cadenceRun {
		d := newDumpHasher()
		sess, err := NewSession(opts(workers, d), hosts)
		if err != nil {
			t.Fatal(err)
		}
		in := NewIngest(sess, IngestOptions{DrainEvery: drainEvery, FlushInterval: 200 * time.Microsecond})
		for _, a := range trace {
			if err := in.Push(a); err != nil {
				t.Fatal(err)
			}
		}
		return d.run(in.Close())
	}

	want := session(1, func(int) bool { return true })
	if want.forcedSeals == 0 || want.graphs == 0 {
		t.Fatalf("setup: the horizon forced no seal (%v)", want)
	}
	t.Logf("drain every push: %v", want)
	check := func(label string, got cadenceRun) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %v, want %v (drain every push)", label, got, want)
		}
	}
	check("workers 1, no drain before Close", session(1, func(int) bool { return false }))
	for _, workers := range []int{1, 2} {
		for _, every := range []int{1, 7, 64, 256, 1024} {
			check(fmt.Sprintf("workers %d, drain every %d", workers, every),
				session(workers, func(i int) bool { return (i+1)%every == 0 }))
		}
		rng := rand.New(rand.NewSource(int64(workers)))
		check(fmt.Sprintf("workers %d, random drains", workers),
			session(workers, func(int) bool { return rng.Intn(100) == 0 }))
		for _, every := range []int{1, 256} {
			check(fmt.Sprintf("workers %d, ingest DrainEvery %d", workers, every), ingest(workers, every))
		}
	}
}

// TestSealBeforeNextRecord: the heartbeat or push that carries the
// activity clock past an idle request's deadline seals the request then
// and there, before any Drain. The next request on the kept-alive
// connection must then start a fresh component instead of fusing into
// the stale one — also when its own first record is what moves the clock.
func TestSealBeforeNextRecord(t *testing.T) {
	for _, heartbeat := range []bool{true, false} {
		t.Run(fmt.Sprintf("heartbeat=%v", heartbeat), func(t *testing.T) {
			sess, err := NewSession(foreverOpts(1, 20*time.Millisecond), []string{"web1", "web2"})
			if err != nil {
				t.Fatal(err)
			}
			pushRequest(t, sess, 0, 0)
			var first *sessComponent
			for _, c := range sess.comps {
				first = c
			}
			if heartbeat {
				if err := sess.Heartbeat("web1", 30*time.Millisecond); err != nil {
					t.Fatal(err)
				}
				if !first.sealed || !first.forced {
					t.Fatalf("heartbeat past the deadline left the request sealed=%v forced=%v", first.sealed, first.forced)
				}
			}
			// Request 20000 reuses request 0's client port: the same connection.
			pushRequest(t, sess, 20000, 30*time.Millisecond)
			if !first.sealed || !first.forced || first.size != 2 {
				t.Fatalf("stale request sealed=%v forced=%v size=%d after the next request, want sealed, forced, 2 records",
					first.sealed, first.forced, first.size)
			}
			var next *sessComponent
			for _, c := range sess.comps {
				if c != first {
					next = c
				}
			}
			if next == nil || next.size != 2 || next.minBegin != 30*time.Millisecond {
				t.Fatalf("the next request on the connection did not start a fresh component: %+v", next)
			}
			out := sess.Close()
			if out.ForcedSeals != 1 || out.Shards != 2 || len(out.Graphs) != 2 {
				t.Fatalf("forced seals %d, shards %d, graphs %d; want 1, 2, 2", out.ForcedSeals, out.Shards, len(out.Graphs))
			}
		})
	}
}

// TestCloseHostShortensHorizon: a host's closing can shorten the horizon
// of a component it touched (db1's 300ms no longer applies, web1's 30ms
// does). A component the clock has already carried past the shorter
// deadline is force-sealed by that CloseHost, so the next Drain releases
// its graph without waiting for another push.
func TestCloseHostShortensHorizon(t *testing.T) {
	sess, err := NewSession(perHostOpts(300*time.Millisecond), []string{"web1", "db1"})
	if err != nil {
		t.Fatal(err)
	}
	push := func(a *activity.Activity) {
		t.Helper()
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	push(mkRaw(1, activity.Receive, 1*time.Millisecond, "web1", "httpd", 1, "10.9.9.9", "10.0.0.1", 40000, 80))
	push(mkRaw(2, activity.Send, 2*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.0.0.2", 50000, 3306))
	push(mkRaw(3, activity.Receive, 3*time.Millisecond, "db1", "mysqld", 9, "10.0.0.1", "10.0.0.2", 50000, 3306))
	push(mkRaw(4, activity.Send, 4*time.Millisecond, "db1", "mysqld", 9, "10.0.0.2", "10.0.0.1", 3306, 50000))
	push(mkRaw(5, activity.Receive, 5*time.Millisecond, "web1", "httpd", 1, "10.0.0.2", "10.0.0.1", 3306, 50000))
	push(mkRaw(6, activity.Send, 6*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, 40000))
	// web1 alone carries the clock to 121ms: past 6ms + 30ms, short of
	// 6ms + 300ms.
	for k := 1; k <= 12; k++ {
		pushRequest(t, sess, k, time.Duration(k)*10*time.Millisecond)
	}
	sess.Drain()
	for _, g := range sess.emitted {
		if spansBothHosts(g) {
			t.Fatal("the cross-host request was released while db1's horizon still covered it")
		}
	}
	if err := sess.CloseHost("db1"); err != nil {
		t.Fatal(err)
	}
	sess.Drain()
	var cross *cag.Graph
	for _, g := range sess.emitted {
		if spansBothHosts(g) {
			cross = g
		}
	}
	if cross == nil {
		t.Fatal("closing db1 did not seal the cross-host request its shorter horizon had expired")
	}
	if forced, _ := cross.Provenance(); !forced {
		t.Fatal("the cross-host request was sealed, but not as a forced seal")
	}
}
