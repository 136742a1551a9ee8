package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
)

// perHostOpts is the lagging-agent fixture: web1 is the front tier on a
// short default horizon, db1 the chronically lagging backend.
func perHostOpts(dbHorizon time.Duration) Options {
	opts := Options{
		Window:     time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "web1", "10.0.0.2": "db1"},
		Workers:    2,
		SealAfter:  30 * time.Millisecond,
	}
	if dbHorizon > 0 {
		opts.SealAfterByHost = map[string]time.Duration{"db1": dbHorizon}
	}
	return opts
}

// pushLaggingScenario drives the per-host-horizon scenario: one cross-host
// request whose db1 leg goes quiet for ~128ms of activity time (the
// lagging agent), while web1 keeps serving quick single-host requests that
// advance the activity clock well past the 30ms default horizon. It
// returns the session after the quiet stretch, before db1 catches up;
// finish() delivers db1's late-but-honest records and completes the
// request.
func pushLaggingScenario(t *testing.T, sess *Session) (finish func()) {
	t.Helper()
	push := func(a *activity.Activity) {
		t.Helper()
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	// The cross-host request: BEGIN on web1, SEND into db1 — then silence
	// from db1 while its agent lags behind.
	push(mkRaw(1, activity.Receive, 1*time.Millisecond, "web1", "httpd", 1, "10.9.9.9", "10.0.0.1", 40000, 80))
	push(mkRaw(2, activity.Send, 2*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.0.0.2", 50000, 3306))
	// web1 keeps serving: twelve quick requests advance the activity clock
	// to 121ms, 4x past the 30ms default horizon.
	for k := 1; k <= 12; k++ {
		base := time.Duration(k) * 10 * time.Millisecond
		id := int64(100 + 2*k)
		port := 41000 + k
		push(mkRaw(id, activity.Receive, base, "web1", "httpd", 2, "10.9.9.9", "10.0.0.1", port, 80))
		push(mkRaw(id+1, activity.Send, base+time.Millisecond, "web1", "httpd", 2, "10.0.0.1", "10.9.9.9", 80, port))
		sess.Drain()
	}
	return func() {
		// db1 catches up: its records are old (3ms) but honest — the agent
		// lagged, the host never violated its own 300ms bound.
		push(mkRaw(3, activity.Receive, 3*time.Millisecond, "db1", "mysqld", 9, "10.0.0.1", "10.0.0.2", 50000, 3306))
		push(mkRaw(4, activity.Send, 130*time.Millisecond, "db1", "mysqld", 9, "10.0.0.2", "10.0.0.1", 3306, 50000))
		push(mkRaw(5, activity.Receive, 131*time.Millisecond, "web1", "httpd", 1, "10.0.0.2", "10.0.0.1", 3306, 50000))
		push(mkRaw(6, activity.Send, 132*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, 40000))
		sess.Drain()
	}
}

// spansBothHosts reports whether a CAG contains records from both web1
// and db1 — the intact cross-host request.
// contribHas reports whether host is a tracked contributor of the
// component (the contrib list is Sym-keyed).
func contribHas(c *sessComponent, host string) bool {
	sym := activity.Syms.Intern(host)
	for _, h := range c.contrib {
		if h == sym {
			return true
		}
	}
	return false
}

func spansBothHosts(g *cag.Graph) bool {
	hosts := make(map[string]bool)
	for _, v := range g.Vertices() {
		hosts[v.Ctx.Host] = true
	}
	return hosts["web1"] && hosts["db1"]
}

// TestSessionPerHostHorizonNoSplit is the per-host-horizon acceptance
// test: giving the lagging db1 a 300ms horizon keeps its in-flight
// request's component alive (the CAG is NOT split) while web1's quick
// components still force-seal on the 30ms default — the global-horizon
// run on the identical input splits the request instead
// (TestSessionGlobalHorizonSplits).
func TestSessionPerHostHorizonNoSplit(t *testing.T) {
	sess, err := NewSession(perHostOpts(300*time.Millisecond), []string{"web1", "db1"})
	if err != nil {
		t.Fatal(err)
	}
	finish := pushLaggingScenario(t, sess)

	// Mid-stream, before db1 catches up: the quick components have sealed
	// on the short default horizon, the cross-host component has not —
	// db1's longer horizon extends only its own components' deadlines.
	ps := sess.impl
	if ps.forcedSeals == 0 {
		t.Fatal("no quick component force-sealed on the 30ms default horizon")
	}
	crossAlive := false
	for _, c := range ps.comps {
		if !c.sealed && contribHas(c, "db1") {
			crossAlive = true
		}
	}
	if !crossAlive {
		t.Fatal("the lagging host's in-flight component was sealed despite its 300ms horizon")
	}

	finish()
	out := sess.Close()
	if out.LateLinks != 0 {
		t.Fatalf("late links = %d, want 0 (db1 stayed within its own horizon)", out.LateLinks)
	}
	if len(out.Graphs) != 13 {
		t.Fatalf("graphs = %d, want 13 (12 quick + 1 cross-host)", len(out.Graphs))
	}
	if out.Unfinished() != 0 {
		t.Fatalf("unfinished = %d, want 0", out.Unfinished())
	}
	intact := 0
	for _, g := range out.Graphs {
		if spansBothHosts(g) {
			intact++
			if n := len(g.Vertices()); n != 6 {
				t.Fatalf("cross-host CAG has %d vertices, want 6 (split?)", n)
			}
		}
	}
	if intact != 1 {
		t.Fatalf("found %d intact cross-host CAGs, want 1", intact)
	}
	if out.ForcedSeals == 0 {
		t.Fatal("quick components never force-sealed on the default horizon")
	}
}

// TestSessionGlobalHorizonSplits is the contrast run: the identical input
// under the global 30ms horizon alone force-seals the cross-host
// component mid-request, destroying the request's CAG — its BEGIN is
// correlated without its END and stays unfinished. (db1's records arrive
// past the one-horizon tombstone window here, so they start a fresh
// component without being counted; TestSessionForcedSealLateLink covers
// the counted-late-link window.)
func TestSessionGlobalHorizonSplits(t *testing.T) {
	sess, err := NewSession(perHostOpts(0), []string{"web1", "db1"})
	if err != nil {
		t.Fatal(err)
	}
	finish := pushLaggingScenario(t, sess)
	ps := sess.impl
	for _, c := range ps.comps {
		if contribHas(c, "db1") && !c.sealed {
			t.Fatal("global horizon left the lagging request's component alive")
		}
	}
	finish()
	out := sess.Close()
	if out.Unfinished() == 0 {
		t.Fatal("global horizon left no unfinished CAG — the split never happened")
	}
	if len(out.Graphs) != 12 {
		t.Fatalf("graphs = %d, want 12 (the cross-host request's CAG destroyed)", len(out.Graphs))
	}
	for _, g := range out.Graphs {
		if spansBothHosts(g) {
			t.Fatal("cross-host CAG survived a mid-request forced seal")
		}
	}
}

// TestSessionHorizonIgnoresClosedHosts: a closed stream delivers
// nothing, so it must not pin its components' horizons open. A component
// spanning a horizon-less web1 and a 50ms-horizon db1 is unbounded only
// while web1 is OPEN; once web1 closes, db1's horizon governs and the
// component force-seals when stale — the regression here was treating
// closed web1's zero horizon as "unbounded" forever, permanently
// stalling emission.
func TestSessionHorizonIgnoresClosedHosts(t *testing.T) {
	opts := Options{
		Window:          time.Millisecond,
		EntryPorts:      []int{80},
		IPToHost:        map[string]string{"10.0.0.1": "web1", "10.0.0.2": "db1"},
		SealAfterByHost: map[string]time.Duration{"db1": 50 * time.Millisecond},
	}
	sess, err := NewSession(opts, []string{"web1", "db1"})
	if err != nil {
		t.Fatal(err)
	}
	push := func(a *activity.Activity) {
		t.Helper()
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	// One complete cross-host request: its component touches both hosts.
	push(mkRaw(1, activity.Receive, 1*time.Millisecond, "web1", "httpd", 1, "10.9.9.9", "10.0.0.1", 40000, 80))
	push(mkRaw(2, activity.Send, 2*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.0.0.2", 50000, 3306))
	push(mkRaw(3, activity.Receive, 3*time.Millisecond, "db1", "mysqld", 9, "10.0.0.1", "10.0.0.2", 50000, 3306))
	push(mkRaw(4, activity.Send, 4*time.Millisecond, "db1", "mysqld", 9, "10.0.0.2", "10.0.0.1", 3306, 50000))
	push(mkRaw(5, activity.Receive, 5*time.Millisecond, "web1", "httpd", 1, "10.0.0.2", "10.0.0.1", 3306, 50000))
	push(mkRaw(6, activity.Send, 6*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, 40000))
	if err := sess.CloseHost("web1"); err != nil {
		t.Fatal(err)
	}
	sess.Drain()
	if n := len(sess.Graphs()); n != 0 {
		t.Fatalf("emitted %d graphs before the component went stale", n)
	}
	// db1 stays open but quiet; its heartbeat advances the activity clock
	// past the component's 50ms horizon.
	if err := sess.Heartbeat("db1", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sess.Drain()
	if n := len(sess.Graphs()); n != 1 {
		t.Fatalf("emitted %d graphs, want 1 — closed web1 pinned the horizon open", n)
	}
	out := sess.Close()
	if out.ForcedSeals != 1 {
		t.Fatalf("forced seals = %d, want 1", out.ForcedSeals)
	}
	if out.LateLinks != 0 {
		t.Fatalf("late links = %d, want 0", out.LateLinks)
	}
}

// TestSessionHeartbeatAdvancesWatermark: a declared-but-silent host with
// no horizon bounds nothing, so even sealed components' graphs are held
// back — until its agent heartbeats a liveness assertion.
func TestSessionHeartbeatAdvancesWatermark(t *testing.T) {
	opts := Options{
		Window:     time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "web1", "10.0.0.2": "db1"},
	}
	sess, err := NewSession(opts, []string{"web1", "db1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(mkRaw(1, activity.Receive, 1*time.Millisecond, "web1", "httpd", 1, "10.9.9.9", "10.0.0.1", 40000, 80)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(mkRaw(2, activity.Send, 2*time.Millisecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, 40000)); err != nil {
		t.Fatal(err)
	}
	if err := sess.CloseHost("web1"); err != nil {
		t.Fatal(err)
	}
	sess.Drain()
	if n := len(sess.Graphs()); n != 0 {
		t.Fatalf("emitted %d graphs while the silent db1 stream bounded nothing", n)
	}
	if err := sess.Heartbeat("db1", 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sess.Drain()
	if n := len(sess.Graphs()); n != 1 {
		t.Fatalf("emitted %d graphs after db1's heartbeat, want 1", n)
	}
}

// TestSessionHeartbeatAdvancesActivityClock: with a seal horizon, a
// heartbeat alone (no traffic) must advance the activity clock enough to
// force-seal and release idle components — the traffic-lull case.
func TestSessionHeartbeatAdvancesActivityClock(t *testing.T) {
	sess, err := NewSession(foreverOpts(1, 30*time.Millisecond), []string{"web1", "web2"})
	if err != nil {
		t.Fatal(err)
	}
	pushRequest(t, sess, 0, time.Millisecond)
	sess.Drain()
	if n := len(sess.Graphs()); n != 0 {
		t.Fatalf("emitted %d graphs before the clock advanced", n)
	}
	if err := sess.Heartbeat("web2", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sess.Heartbeat("web1", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sess.Drain()
	if n := len(sess.Graphs()); n != 1 {
		t.Fatalf("emitted %d graphs after heartbeats advanced the clock, want 1", n)
	}
	out := sess.Close()
	if out.ForcedSeals != 1 {
		t.Fatalf("forced seals = %d, want 1", out.ForcedSeals)
	}
}

// TestSessionHeartbeatErrors pins the heartbeat contract: unknown and
// closed streams are rejected, closed sessions are rejected, and a stale
// assertion is ignored rather than regressing the stream's bound.
func TestSessionHeartbeatErrors(t *testing.T) {
	res := fastRun(t, 10, nil)
	sess, err := NewSession(options(res), hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Heartbeat("nosuch", time.Second); err == nil {
		t.Fatal("heartbeat for an undeclared host accepted")
	}
	if err := sess.CloseHost("db1"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Heartbeat("db1", time.Second); err == nil {
		t.Fatal("heartbeat on a closed stream accepted")
	}
	// A stale heartbeat must not lower the per-host monotonicity bound.
	var a *activity.Activity
	for _, rec := range res.Trace {
		if rec.Ctx.Host == "web1" {
			a = rec
			break
		}
	}
	if a == nil {
		t.Fatal("test setup: no web1 record")
	}
	if err := sess.Push(a); err != nil {
		t.Fatal(err)
	}
	if err := sess.Heartbeat("web1", a.Timestamp-time.Second); err != nil {
		t.Fatalf("stale heartbeat rejected: %v", err)
	}
	old := *a
	old.Timestamp = a.Timestamp - time.Millisecond
	if err := sess.Push(&old); err == nil {
		t.Fatal("stale heartbeat regressed the stream bound (old push accepted)")
	}
	sess.Close()
	if err := sess.Heartbeat("web1", time.Second); err == nil {
		t.Fatal("heartbeat on a closed session accepted")
	}

	// PaperExactNoise sessions run the same streaming engine, so
	// heartbeats work (and are validated) there too.
	opts := options(res)
	opts.PaperExactNoise = true
	g, err := NewSession(opts, hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Heartbeat("web1", time.Second); err != nil {
		t.Fatalf("exact session rejected a heartbeat: %v", err)
	}
	if err := g.Heartbeat("nosuch", time.Second); err == nil {
		t.Fatal("exact session accepted a heartbeat for an undeclared host")
	}
}

// TestOptionsValidation: option values that would silently misbehave are
// rejected at construction — by NewSession directly, and by the Correlate
// methods for the chainable New.
func TestOptionsValidation(t *testing.T) {
	base := func() Options {
		return Options{Window: time.Millisecond, EntryPorts: []int{80}}
	}
	cases := []struct {
		name   string
		mutate func(*Options)
		frag   string
	}{
		{"negative workers", func(o *Options) { o.Workers = -1 }, "Workers"},
		{"negative sealafter", func(o *Options) { o.SealAfter = -time.Second }, "SealAfter"},
		{"zero per-host horizon", func(o *Options) {
			o.SealAfterByHost = map[string]time.Duration{"db1": 0}
		}, "SealAfterByHost"},
		{"negative per-host horizon", func(o *Options) {
			o.SealAfterByHost = map[string]time.Duration{"db1": -time.Millisecond}
		}, "SealAfterByHost"},
		{"empty per-host name", func(o *Options) {
			o.SealAfterByHost = map[string]time.Duration{"": time.Second}
		}, "host name"},
	}
	for _, tc := range cases {
		opts := base()
		tc.mutate(&opts)
		if _, err := NewSession(opts, []string{"web1"}); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: NewSession error = %v, want mention of %q", tc.name, err, tc.frag)
		}
		if _, err := New(opts).CorrelateTrace(nil); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: CorrelateTrace error = %v, want mention of %q", tc.name, err, tc.frag)
		}
		if _, err := New(opts).CorrelateSources(nil, 0); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: CorrelateSources error = %v, want mention of %q", tc.name, err, tc.frag)
		}
	}
	// Per-host horizons alone (no global default) are a valid continuous
	// configuration.
	opts := base()
	opts.SealAfterByHost = map[string]time.Duration{"web1": time.Second}
	sess, err := NewSession(opts, []string{"web1"})
	if err != nil {
		t.Fatalf("per-host-only horizons rejected: %v", err)
	}
	if !sess.impl.continuous {
		t.Fatal("per-host-only horizons did not enable continuous mode")
	}
	sess.Close()
}

// TestParseSealAfterSpec covers the CLI -sealafter grammar shared by both
// binaries.
func TestParseSealAfterSpec(t *testing.T) {
	ok := []struct {
		spec    string
		global  time.Duration
		perHost map[string]time.Duration
	}{
		{"", 0, nil},
		{"50ms", 50 * time.Millisecond, nil},
		{"0", 0, nil},
		{"db1=500ms", 0, map[string]time.Duration{"db1": 500 * time.Millisecond}},
		{"50ms,db1=500ms", 50 * time.Millisecond, map[string]time.Duration{"db1": 500 * time.Millisecond}},
		{" 50ms , db1 = 500ms , web1=1s ", 50 * time.Millisecond,
			map[string]time.Duration{"db1": 500 * time.Millisecond, "web1": time.Second}},
	}
	for _, tc := range ok {
		global, perHost, err := ParseSealAfterSpec(tc.spec)
		if err != nil {
			t.Errorf("%q: unexpected error %v", tc.spec, err)
			continue
		}
		if global != tc.global {
			t.Errorf("%q: global = %v, want %v", tc.spec, global, tc.global)
		}
		if len(perHost) != len(tc.perHost) {
			t.Errorf("%q: perHost = %v, want %v", tc.spec, perHost, tc.perHost)
			continue
		}
		for h, d := range tc.perHost {
			if perHost[h] != d {
				t.Errorf("%q: perHost[%s] = %v, want %v", tc.spec, h, perHost[h], d)
			}
		}
	}
	bad := []string{
		"abc", "db1=abc", "db1=0", "db1=-5ms", "-5ms", "=5ms",
		"50ms,60ms", "db1=5ms,db1=6ms",
	}
	for _, spec := range bad {
		if _, _, err := ParseSealAfterSpec(spec); err == nil {
			t.Errorf("%q: accepted, want error", spec)
		}
	}
}

// TestOfflineReplayCountersSurvive: the replay-based offline path must
// carry the continuous-mode counters into the Result — a recorded trace
// with a quiet gap reproduces the deployment's forced seals
// deterministically, with no late links and no lost graphs.
func TestOfflineReplayCountersSurvive(t *testing.T) {
	// 600 quick requests, 1ms apart: long enough that the replay's fixed
	// drain cadence fires mid-trace and the 20ms horizon force-seals the
	// older completed components.
	const n = 600
	trace := make([]*activity.Activity, 0, 2*n)
	for k := 0; k < n; k++ {
		base := time.Duration(k) * time.Millisecond
		port := 40000 + k%20000
		trace = append(trace,
			mkRaw(int64(2*k), activity.Receive, base, "web1", "httpd", 1, "10.9.9.9", "10.0.0.1", port, 80),
			mkRaw(int64(2*k+1), activity.Send, base+100*time.Microsecond, "web1", "httpd", 1, "10.0.0.1", "10.9.9.9", 80, port))
	}
	opts := Options{
		Window:     time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   map[string]string{"10.0.0.1": "web1"},
		SealAfter:  20 * time.Millisecond,
	}
	run := func() *Result {
		t.Helper()
		res, err := New(opts).CorrelateTrace(trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.ForcedSeals == 0 {
		t.Fatal("offline replay lost the ForcedSeals counter (or never force-sealed)")
	}
	if res.LateLinks != 0 {
		t.Fatalf("late links = %d, want 0 (completed components only)", res.LateLinks)
	}
	if len(res.Graphs) != n {
		t.Fatalf("graphs = %d, want %d", len(res.Graphs), n)
	}
	again := run()
	if again.ForcedSeals != res.ForcedSeals || again.LateLinks != res.LateLinks {
		t.Fatalf("replay counters not deterministic: (%d,%d) then (%d,%d)",
			res.ForcedSeals, res.LateLinks, again.ForcedSeals, again.LateLinks)
	}

	// PaperExactNoise honours the horizon too: it is a streaming-engine
	// mode like any other, so the same continuous replay must force seals
	// instead of being rejected.
	exact := opts
	exact.PaperExactNoise = true
	exact.Workers = 4
	pres, err := New(exact).CorrelateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if pres.ForcedSeals == 0 {
		t.Fatal("exact-mode continuous replay produced no forced seals")
	}
	if pres.Shards == 0 {
		t.Fatal("exact-mode continuous replay reported no shards")
	}
}
