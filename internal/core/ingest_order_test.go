package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/clock"
	"repro/internal/rubis"
)

// frontStep is one per-host item as the ordering front sees it: a record
// or (rec nil) a heartbeat.
type frontStep struct {
	host string
	ts   time.Duration
	rec  *activity.Activity
}

// mergeSteps is the order the front must restore: timestamp, then host
// name, then per-host order — independent of how the items were batched.
func mergeSteps(perHost map[string][]frontStep) []frontStep {
	var hosts []string
	for h := range perHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	var out []frontStep
	for _, h := range hosts {
		out = append(out, perHost[h]...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].ts != out[j].ts {
			return out[i].ts < out[j].ts
		}
		return out[i].host < out[j].host
	})
	return out
}

func sortedHosts(perHost map[string][]*activity.Activity) []string {
	var hosts []string
	for h := range perHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

func recordSteps(perHost map[string][]*activity.Activity) map[string][]frontStep {
	out := make(map[string][]frontStep, len(perHost))
	for h, log := range perHost {
		for _, a := range log {
			out[h] = append(out[h], frontStep{host: h, ts: a.Timestamp, rec: a})
		}
	}
	return out
}

// orderedSession is the reference: a plain Session pushed in merged
// order and closed.
func orderedSession(t *testing.T, opts Options, hosts []string, steps []frontStep) (*Result, []string) {
	t.Helper()
	var fps []string
	opts.Sinks = []GraphSink{GraphSinkFunc(func(g *cag.Graph) { fps = append(fps, fingerprint(g)) })}
	s, err := NewSession(opts, hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if st.rec == nil {
			continue
		}
		if err := s.Push(st.rec); err != nil {
			t.Fatal(err)
		}
	}
	return s.Close(), fps
}

// frontRun is an Ingest over a fresh session that records the OnApplied
// sequence and the emitted fingerprints.
type frontRun struct {
	in      *Ingest
	applied []frontStep
	fps     []string
}

func newFrontRun(t *testing.T, opts Options, hosts []string, iopts IngestOptions) *frontRun {
	t.Helper()
	fr := &frontRun{}
	opts.Sinks = []GraphSink{GraphSinkFunc(func(g *cag.Graph) { fr.fps = append(fr.fps, fingerprint(g)) })}
	s, err := NewSession(opts, hosts)
	if err != nil {
		t.Fatal(err)
	}
	iopts.OnApplied = func(h string, ts time.Duration) { fr.applied = append(fr.applied, frontStep{host: h, ts: ts}) }
	fr.in = NewIngest(s, iopts)
	return fr
}

// offer sends a run of one host's items: consecutive records travel as
// one PushBatch (or a lone Push when single), heartbeats on their own.
func (fr *frontRun) offer(t *testing.T, steps []frontStep, single bool) {
	t.Helper()
	var batch []*activity.Activity
	flush := func() {
		if len(batch) == 0 {
			return
		}
		var err error
		if single && len(batch) == 1 {
			err = fr.in.Push(batch[0])
		} else {
			err = fr.in.PushBatch(batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		batch = nil
	}
	for _, st := range steps {
		if st.rec != nil {
			batch = append(batch, st.rec)
			continue
		}
		flush()
		if err := fr.in.Heartbeat(st.host, st.ts); err != nil {
			t.Fatal(err)
		}
	}
	flush()
}

func assertApplied(t *testing.T, label string, got, want []frontStep) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items applied, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].host != want[i].host || got[i].ts != want[i].ts {
			t.Fatalf("%s: applied[%d] = %s@%v, merged order wants %s@%v",
				label, i, got[i].host, got[i].ts, want[i].host, want[i].ts)
		}
	}
}

func assertSameRun(t *testing.T, label string, got *Result, gotFps []string, want *Result, wantFps []string) {
	t.Helper()
	if got.Shards != want.Shards {
		t.Errorf("%s: %d shards, in-order session %d", label, got.Shards, want.Shards)
	}
	if len(gotFps) != len(wantFps) {
		t.Fatalf("%s: %d graphs, in-order session %d", label, len(gotFps), len(wantFps))
	}
	for i := range wantFps {
		if gotFps[i] != wantFps[i] {
			t.Fatalf("%s: graph %d differs from the in-order session", label, i)
		}
	}
}

// TestIngestRestoresOrder: whatever the cross-host interleaving, batching
// and CloseHost timing, the session behind an Ingest is applied the
// timestamp merge — same OnApplied sequence, same partition (Shards),
// same graphs as a Session pushed in order. debugShardClosure is armed
// for the whole package (debug_test.go).
func TestIngestRestoresOrder(t *testing.T) {
	res := fastRun(t, 60, nil)
	opts := options(res)
	opts.Workers = 2
	hosts := sortedHosts(res.PerHost)
	records := recordSteps(res.PerHost)
	want, wantFps := orderedSession(t, opts, hosts, mergeSteps(records))
	if want.Shards < 2 || len(wantFps) == 0 {
		t.Fatalf("degenerate reference: %d shards, %d graphs", want.Shards, len(wantFps))
	}

	t.Run("skewed", func(t *testing.T) {
		// All of one host, then the next: the worst arrival order.
		fr := newFrontRun(t, opts, hosts, IngestOptions{DrainEvery: 64})
		for _, h := range hosts {
			for log := records[h]; len(log) > 0; {
				n := min(64, len(log))
				fr.offer(t, log[:n], false)
				log = log[n:]
			}
			if err := fr.in.CloseHost(h); err != nil {
				t.Fatal(err)
			}
		}
		got := fr.in.Close()
		assertApplied(t, "skewed", fr.applied, mergeSteps(records))
		assertSameRun(t, "skewed", got, fr.fps, want, wantFps)
		if st := fr.in.Stats(); st.Held != 0 || st.PeakHeld < len(records[hosts[0]]) {
			t.Errorf("stats after close: held %d, peak %d (first host alone is %d records)",
				st.Held, st.PeakHeld, len(records[hosts[0]]))
		}
	})

	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Per-host item lists: the records, with honest heartbeats (no
		// older than the record before, no newer than the one after)
		// sprinkled in.
		items := make(map[string][]frontStep, len(hosts))
		for _, h := range hosts {
			log := records[h]
			for i, st := range log {
				items[h] = append(items[h], st)
				if rng.Intn(40) == 0 {
					hb := st.ts
					if i+1 < len(log) {
						hb += time.Duration(rng.Int63n(int64(log[i+1].ts-st.ts) + 1))
					}
					items[h] = append(items[h], frontStep{host: h, ts: hb})
				}
			}
		}
		label := fmt.Sprintf("seed %d", seed)
		fr := newFrontRun(t, opts, hosts, IngestOptions{DrainEvery: 1 + rng.Intn(300), Buffer: 1 + rng.Intn(8)})
		left := make(map[string][]frontStep, len(hosts))
		for h, l := range items {
			left[h] = l
		}
		var unclosed []string
		for len(left) > 0 {
			h := hosts[rng.Intn(len(hosts))]
			l, ok := left[h]
			if !ok {
				continue
			}
			n := min(1+rng.Intn(120), len(l))
			fr.offer(t, l[:n], rng.Intn(2) == 0)
			if left[h] = l[n:]; len(left[h]) == 0 {
				delete(left, h)
				if rng.Intn(2) == 0 {
					if err := fr.in.CloseHost(h); err != nil {
						t.Fatal(err)
					}
				} else {
					unclosed = append(unclosed, h) // left to a late CloseHost or to Close
				}
			}
		}
		for _, h := range unclosed {
			if rng.Intn(2) == 0 {
				if err := fr.in.CloseHost(h); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := fr.in.Close()
		assertApplied(t, label, fr.applied, mergeSteps(items))
		assertSameRun(t, label, got, fr.fps, want, wantFps)
	}
}

// TestIngestPushMatchesPushBatch: feeding every record through the
// single-record Push gives the same applied merge, partition and graphs
// as PushBatch of the same per-host runs. Push offers each record from
// one reused variable, so a front that kept the caller's pointer instead
// of its own copy would correlate the last record many times over.
func TestIngestPushMatchesPushBatch(t *testing.T) {
	res := fastRun(t, 40, nil)
	opts := options(res)
	hosts := sortedHosts(res.PerHost)
	records := recordSteps(res.PerHost)
	want, wantFps := orderedSession(t, opts, hosts, mergeSteps(records))

	pushed := newFrontRun(t, opts, hosts, IngestOptions{DrainEvery: 64})
	var scratch activity.Activity
	for _, h := range hosts {
		for _, st := range records[h] {
			scratch = *st.rec
			if err := pushed.in.Push(&scratch); err != nil {
				t.Fatal(err)
			}
		}
	}
	batched := newFrontRun(t, opts, hosts, IngestOptions{DrainEvery: 64})
	for _, h := range hosts {
		for log := records[h]; len(log) > 0; {
			n := min(64, len(log))
			batched.offer(t, log[:n], false)
			log = log[n:]
		}
	}
	for _, run := range []struct {
		label string
		fr    *frontRun
	}{{"Push", pushed}, {"PushBatch", batched}} {
		got := run.fr.in.Close()
		assertApplied(t, run.label, run.fr.applied, mergeSteps(records))
		assertSameRun(t, run.label, got, run.fr.fps, want, wantFps)
	}
}

// TestIngestSkewedClocks: under cross-host clock skew the merge is only
// as good as the clocks — the residue over-merges (so the shard count may
// differ) but the graphs are those of the offline replay.
func TestIngestSkewedClocks(t *testing.T) {
	res := fastRun(t, 40, func(c *rubis.Config) {
		c.Skew = clock.SkewScenario{MaxSkew: 50 * time.Millisecond}
	})
	opts := options(res)
	offline, err := New(opts).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	hosts := sortedHosts(res.PerHost)
	fr := newFrontRun(t, opts, hosts, IngestOptions{DrainEvery: 128})
	rng := rand.New(rand.NewSource(1))
	left := recordSteps(res.PerHost)
	for len(left) > 0 {
		h := hosts[rng.Intn(len(hosts))]
		l, ok := left[h]
		if !ok {
			continue
		}
		n := min(1+rng.Intn(90), len(l))
		fr.offer(t, l[:n], false)
		if left[h] = l[n:]; len(left[h]) == 0 {
			delete(left, h)
			if err := fr.in.CloseHost(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := fr.in.Close()
	if len(fr.fps) != len(offline.Graphs) || len(fr.fps) == 0 {
		t.Fatalf("%d graphs through the front, offline replay %d", len(fr.fps), len(offline.Graphs))
	}
	for i, g := range offline.Graphs {
		if fr.fps[i] != fingerprint(g) {
			t.Fatalf("graph %d differs from the offline replay", i)
		}
	}
	t.Logf("skewed clocks: %d shards through the front, %d offline", got.Shards, offline.Shards)
}

// silentFixture is two hosts with independent single-host requests: web1
// keeps sending, db1's behaviour is the test's subject.
func silentFixture(t *testing.T, sealAfter time.Duration) (*frontRun, []*activity.Activity) {
	t.Helper()
	opts := ingestOpts()
	opts.SealAfter = sealAfter
	fr := newFrontRun(t, opts, []string{"web1", "db1"}, IngestOptions{})
	var web []*activity.Activity
	for r := 0; r < 20; r++ {
		web = append(web, singleHostRequest("web1", r)...)
	}
	return fr, web
}

func (fr *frontRun) synced(t *testing.T) IngestStats {
	t.Helper()
	if err := fr.in.Sync(); err != nil {
		t.Fatal(err)
	}
	return fr.in.Stats()
}

// TestIngestSilentHost: what a host that stops sending costs its peers.
func TestIngestSilentHost(t *testing.T) {
	t.Run("no horizon: held until it closes", func(t *testing.T) {
		fr, web := silentFixture(t, 0)
		if err := fr.in.PushBatch(web); err != nil {
			t.Fatal(err)
		}
		st := fr.synced(t)
		if len(fr.applied) != 0 || st.Held != len(web) || st.Bounding != "db1" {
			t.Fatalf("silent db1: %d applied, stats %+v; want all %d held behind db1", len(fr.applied), st, len(web))
		}
		if st.Hosts[0].Host != "db1" || st.Hosts[1].Held != len(web) || st.Hosts[1].Bound != web[len(web)-1].Timestamp {
			t.Fatalf("per-host rows: %+v", st.Hosts)
		}
		if err := fr.in.CloseHost("db1"); err != nil {
			t.Fatal(err)
		}
		st = fr.synced(t)
		if len(fr.applied) != len(web) || st.Held != 0 || st.Bounding != "" || st.PeakHeld != len(web) {
			t.Fatalf("after db1 closed: %d applied, stats %+v", len(fr.applied), st)
		}
		fr.in.Close()
	})

	t.Run("horizon: delayed by at most the horizon", func(t *testing.T) {
		const horizon = 35 * time.Millisecond // between web1's timestamps: no tie
		fr, web := silentFixture(t, horizon)
		// db1 speaks once, early, then goes quiet.
		if err := fr.in.Push(mkRaw(9000, activity.Receive, time.Millisecond, "db1", "mysqld", 1, "10.9.9.8", "10.0.0.2", 4000, 3306)); err != nil {
			t.Fatal(err)
		}
		if err := fr.in.PushBatch(web); err != nil {
			t.Fatal(err)
		}
		st := fr.synced(t)
		newest := web[len(web)-1].Timestamp
		passed := 1 // db1's record
		for _, a := range web {
			if a.Timestamp <= newest-horizon {
				passed++
			}
		}
		if len(fr.applied) != passed || st.Held != len(web)+1-passed || st.Bounding != "db1" {
			t.Fatalf("quiet db1 under a %v horizon: %d applied (want %d: everything up to %v), stats %+v",
				horizon, len(fr.applied), passed, newest-horizon, st)
		}
		fr.in.Close()
		if len(fr.applied) != len(web)+1 {
			t.Fatalf("Close applied %d of %d", len(fr.applied), len(web)+1)
		}
	})

	t.Run("heartbeats advance the front", func(t *testing.T) {
		fr, web := silentFixture(t, 0)
		if err := fr.in.PushBatch(web); err != nil {
			t.Fatal(err)
		}
		mid := web[len(web)/2].Timestamp
		if err := fr.in.Heartbeat("db1", mid); err != nil {
			t.Fatal(err)
		}
		st := fr.synced(t)
		// web1's records up to the assertion pass — the tie at mid goes
		// to db1, the host sorting first — then the heartbeat itself.
		want := len(web)/2 + 1
		if len(fr.applied) != want || fr.applied[want-1].host != "db1" || st.Held != len(web)-len(web)/2 {
			t.Fatalf("after db1's heartbeat at %v: %d applied (want %d), last %+v, stats %+v",
				mid, len(fr.applied), want, fr.applied[len(fr.applied)-1], st)
		}
		fr.in.Close()
	})
}

// TestIngestReleaseExactlyOnce: every PushBatch record reaches Release
// exactly once on every exit — applied, rejected at receipt, skipped
// behind its host's sticky error, still held when Close flushes — and
// single-record Push records never do.
func TestIngestReleaseExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	released := make(map[*activity.Activity]int)
	s, err := NewSession(ingestOpts(), []string{"web1", "db1", "app1"})
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngest(s, IngestOptions{
		Buffer:     4,
		DrainEvery: 8,
		Release: func(a *activity.Activity) {
			mu.Lock()
			released[a]++
			mu.Unlock()
		},
	})
	var batched, pushed []*activity.Activity
	track := func(dst *[]*activity.Activity, recs ...*activity.Activity) []*activity.Activity {
		mu.Lock()
		*dst = append(*dst, recs...)
		mu.Unlock()
		return recs
	}
	batch := func(recs ...*activity.Activity) {
		// The error of a batch offered to an already-failed host is the
		// pre-check refusing it: the front never owned it.
		if err := in.PushBatch(append([]*activity.Activity(nil), recs...)); err == nil {
			track(&batched, recs...)
		}
	}

	var wg sync.WaitGroup
	// web1: applied batches, interleaved with single pushes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 30; r++ {
			req := singleHostRequest("web1", r)
			if r%3 == 0 {
				for _, a := range track(&pushed, req...) {
					if err := in.Push(a); err != nil {
						t.Error(err)
					}
				}
			} else {
				batch(req...)
			}
		}
	}()
	// db1: a regression mid-batch (the rest of the batch is skipped), then
	// batches offered behind the sticky error.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ok := singleHostRequest("db1", 5)
		bad := singleHostRequest("db1", 1)
		batch(ok[0], ok[1], bad[0], bad[1], singleHostRequest("db1", 6)[0])
		for r := 7; r < 12; r++ {
			batch(singleHostRequest("db1", r)...)
		}
	}()
	// ghost: undeclared, rejected at receipt. app1: closed, then offered
	// more; one mixed-host batch on top.
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch(singleHostRequest("ghost", 0)...)
		batch(singleHostRequest("app1", 0)...)
		if err := in.CloseHost("app1"); err != nil {
			t.Error(err)
		}
		batch(singleHostRequest("app1", 1)...)
		batch(append(singleHostRequest("app1", 2), singleHostRequest("ghost", 1)...)...)
	}()
	wg.Wait()
	if err := in.Sync(); err != nil {
		t.Fatal(err)
	}
	// db1 never closes and stopped early: web1's tail is still held here
	// and must be released by Close's flush.
	if st := in.Stats(); st.Held == 0 {
		t.Fatalf("nothing held before Close: %+v", st)
	}
	in.Close()

	if len(batched) < 50 {
		t.Fatalf("only %d records went through PushBatch", len(batched))
	}
	for _, a := range batched {
		if released[a] != 1 {
			t.Errorf("PushBatch record %d (%s@%v) released %d times", a.ID, a.Ctx.Host, a.Timestamp, released[a])
		}
	}
	if len(released) != len(batched) {
		t.Errorf("%d distinct records released, %d batched", len(released), len(batched))
	}
	for _, a := range pushed {
		if released[a] != 0 {
			t.Errorf("single-record Push record %d was passed to Release", a.ID)
		}
	}
}
