package transport_test

import (
	"flag"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/transport"
)

// Soak knobs: `make soak` scales these up; the defaults keep the test
// inside the ordinary `go test ./...` budget.
var (
	soakAgents   = flag.Int("soak.agents", 8, "hosts (= concurrent agents) for TestTransportSoak")
	soakRequests = flag.Int("soak.requests", 300, "requests for TestTransportSoak")
)

// fingerprint captures everything observable about one CAG: structure,
// per-vertex channels and sizes, record identity, latency. Two runs are
// byte-identical iff their fingerprint sequences match.
func fingerprint(g *cag.Graph) string {
	var b strings.Builder
	b.WriteString(cag.Dump(g))
	for i := 0; i < g.Len(); i++ {
		v := g.Vertex(i)
		fmt.Fprintf(&b, "%d %s %v|", i, v.Chan, v.Size)
	}
	fmt.Fprintf(&b, "records=%v latency=%v", g.RecordIDs(), g.Latency())
	return b.String()
}

// trace is a synthetic multi-tier workload: one "web" front tier plus
// N-1 backends. Each request enters web on port 80, fans to one backend
// (round-robin, so every host stays active), and returns — six records
// spanning two hosts, globally increasing timestamps, globally unique
// IDs. Both the offline baseline and the networked run consume the very
// same records.
type trace struct {
	hosts    []string
	ipToHost map[string]string
	perHost  map[string][]*activity.Activity
	requests int
}

func genTrace(nHosts, requests int) *trace {
	tr := &trace{
		ipToHost: make(map[string]string),
		perHost:  make(map[string][]*activity.Activity),
		requests: requests,
	}
	ip := map[string]string{"web": "10.0.0.1"}
	tr.hosts = append(tr.hosts, "web")
	for i := 1; i < nHosts; i++ {
		h := fmt.Sprintf("b%d", i)
		tr.hosts = append(tr.hosts, h)
		ip[h] = fmt.Sprintf("10.0.1.%d", i)
	}
	for h, addr := range ip {
		tr.ipToHost[addr] = h
	}
	const client = "10.9.9.9"
	var ts time.Duration
	var id int64
	add := func(host string, typ activity.Type, srcIP string, srcPort int, dstIP string, dstPort int, size int64) {
		ts += time.Millisecond
		id++
		tr.perHost[host] = append(tr.perHost[host], &activity.Activity{
			ID: id, Type: typ, Timestamp: ts,
			Ctx:  activity.Context{Host: host, Program: "srv", PID: 100, TID: 100},
			Chan: activity.Channel{Src: activity.EP(srcIP, srcPort), Dst: activity.EP(dstIP, dstPort)},
			Size: size, ReqID: -1, MsgID: -1,
		})
	}
	for r := 0; r < requests; r++ {
		backend := tr.hosts[1+r%(nHosts-1)]
		cport := 10000 + r%20000
		pport := 31000 + r%20000
		add("web", activity.Receive, client, cport, ip["web"], 80, 100)
		add("web", activity.Send, ip["web"], pport, ip[backend], 9000, 50)
		add(backend, activity.Receive, ip["web"], pport, ip[backend], 9000, 50)
		add(backend, activity.Send, ip[backend], 9000, ip["web"], pport, 70)
		add("web", activity.Receive, ip[backend], 9000, ip["web"], pport, 70)
		add("web", activity.Send, ip["web"], 80, client, cport, 200)
	}
	return tr
}

func (tr *trace) opts(sinks ...core.GraphSink) core.Options {
	return core.Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{80},
		IPToHost:   tr.ipToHost,
		Workers:    2,
		Sinks:      sinks,
	}
}

// offlineFingerprints is the gold run: the same session fed in-process.
func offlineFingerprints(t *testing.T, tr *trace) []string {
	t.Helper()
	var fps []string
	s, err := core.NewSession(tr.opts(core.GraphSinkFunc(func(g *cag.Graph) { fps = append(fps, fingerprint(g)) })), tr.hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range tr.hosts {
		for _, a := range tr.perHost[h] {
			if err := s.Push(a); err != nil {
				t.Fatalf("offline push %s: %v", h, err)
			}
		}
		if err := s.CloseHost(h); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	return fps
}

// offlineShards is how many flow components the same records partition
// into when a session is pushed the cross-host timestamp merge — the
// order core.Ingest restores on the wire, whatever the agents' batching,
// bounces and restarts did to the arrival order.
func offlineShards(t *testing.T, tr *trace) int {
	t.Helper()
	var merged []*activity.Activity
	for _, h := range tr.hosts {
		merged = append(merged, tr.perHost[h]...)
	}
	// genTrace's timestamps are globally unique: no tie-break needed.
	sort.Slice(merged, func(i, j int) bool { return merged[i].Timestamp < merged[j].Timestamp })
	s, err := core.NewSession(tr.opts(), tr.hosts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PushBatch(merged); err != nil {
		t.Fatal(err)
	}
	return s.Close().Shards
}

// startCollector wires listener → collector → serialized ingest → session
// and returns the pieces.
func startCollector(t *testing.T, tr *trace, opts core.Options, iopts core.IngestOptions) (*transport.Collector, *core.Ingest, net.Listener) {
	t.Helper()
	s, err := core.NewSession(opts, tr.hosts)
	if err != nil {
		t.Fatal(err)
	}
	in := core.NewIngest(s, iopts)
	col, err := transport.NewCollector(in, transport.CollectorConfig{Hosts: tr.hosts, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go col.Serve(ln)
	return col, in, ln
}

func agentConfig(addr, host string, t *testing.T) transport.AgentConfig {
	return transport.AgentConfig{
		Addr: addr, Host: host,
		BatchSize: 64, FlushInterval: 5 * time.Millisecond,
		MaxUnacked: 128, RetryInterval: 10 * time.Millisecond,
		Logf: t.Logf,
	}
}

// waitDrained blocks until everything offered so far has been delivered
// and acked — so a following Bounce/Abort severs a connection that
// demonstrably carried data, instead of firing before the first flush.
func waitDrained(t *testing.T, a *transport.Agent) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for a.Unacked() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent never drained its window")
		}
		time.Sleep(time.Millisecond)
	}
}

// feedAndClose ships one host's records and performs the CLOSE handshake.
func feedAndClose(t *testing.T, addr, host string, recs []*activity.Activity, mid func(a *transport.Agent) *transport.Agent) {
	a, err := transport.NewAgent(agentConfig(addr, host, t))
	if err != nil {
		t.Error(err)
		return
	}
	for i, r := range recs {
		if mid != nil && i == len(recs)/2 {
			if a = mid(a); a == nil {
				return // mid-stream action took over (abort path)
			}
		}
		if err := a.Record(r); err != nil {
			t.Errorf("%s: record %d: %v", host, i, err)
			return
		}
	}
	if err := a.Close(); err != nil {
		t.Errorf("%s: close: %v", host, err)
	}
}

// TestNetworkedEquivalence is the tentpole's acceptance: a collector fed
// by 9 concurrent loopback agents — one bounced (reconnect + resume), one
// killed and replaced by a restarted agent re-offering its whole log —
// drains a sink stream byte-identical to the offline in-process
// replay of the same records.
func TestNetworkedEquivalence(t *testing.T) {
	tr := genTrace(9, 240)
	want := offlineFingerprints(t, tr)
	if len(want) == 0 {
		t.Fatal("offline baseline produced no graphs")
	}

	var fps []string
	col, in, ln := startCollector(t, tr,
		tr.opts(core.GraphSinkFunc(func(g *cag.Graph) { fps = append(fps, fingerprint(g)) })),
		core.IngestOptions{Buffer: 64, DrainEvery: 128})
	defer ln.Close()

	done := make(chan string, len(tr.hosts))
	for _, h := range tr.hosts {
		h := h
		var mid func(*transport.Agent) *transport.Agent
		switch h {
		case "b2": // sever the connection mid-stream: reconnect + resume
			mid = func(a *transport.Agent) *transport.Agent { waitDrained(t, a); a.Bounce(); return a }
		case "b5": // kill the agent mid-stream: a fresh process re-offers
			// the whole log; positional sequences skip the applied prefix
			mid = func(a *transport.Agent) *transport.Agent {
				waitDrained(t, a)
				a.Abort()
				a2, err := transport.NewAgent(agentConfig(ln.Addr().String(), h, t))
				if err != nil {
					t.Error(err)
					return nil
				}
				for i, r := range tr.perHost[h] {
					if err := a2.Record(r); err != nil {
						t.Errorf("%s restart: record %d: %v", h, i, err)
						return nil
					}
				}
				if err := a2.Close(); err != nil {
					t.Errorf("%s restart: close: %v", h, err)
				}
				return nil
			}
		}
		go func() {
			feedAndClose(t, ln.Addr().String(), h, tr.perHost[h], mid)
			done <- h
		}()
	}
	for range tr.hosts {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("agents did not finish")
		}
	}
	select {
	case <-col.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("collector never saw all hosts close; status: %+v", col.Status())
	}
	col.Shutdown()
	ln.Close()
	res := in.Close()

	if wantShards := offlineShards(t, tr); res.Shards != wantShards {
		t.Errorf("networked run partitioned into %d components, in-order replay %d", res.Shards, wantShards)
	}
	if len(fps) != len(want) {
		t.Fatalf("networked run emitted %d graphs, offline %d", len(fps), len(want))
	}
	for i := range want {
		if fps[i] != want[i] {
			t.Fatalf("graph %d differs from offline replay:\nnet: %s\noff: %s", i, fps[i], want[i])
		}
	}
	for _, st := range col.Status() {
		if !st.Closed {
			t.Errorf("host %s not closed: %+v", st.Host, st)
		}
		if st.Host == "b2" || st.Host == "b5" {
			if st.Disconnects == 0 {
				t.Errorf("host %s: expected a recorded disconnect", st.Host)
			}
		}
	}
}

// TestDeadAgentSurfaces kills one agent permanently mid-stream while the
// rest keep flowing under a seal horizon: the correlator must force-seal
// the dead host's components (ForcedSeals) instead of hanging, the
// monitor's delivery view must show the dead host stale, and a very late
// restart must drain as LateLinks and still close the run cleanly.
func TestDeadAgentSurfaces(t *testing.T) {
	tr := genTrace(8, 210)
	const dead = "b3"

	mon := live.NewMonitor(live.Config{Interval: 100 * time.Millisecond})
	opts := tr.opts(mon)
	opts.SealAfter = 50 * time.Millisecond
	col, in, ln := startCollector(t, tr, opts,
		core.IngestOptions{Buffer: 64, DrainEvery: 32,
			OnApplied: mon.ObserveDelivery})
	defer ln.Close()

	done := make(chan struct{})
	for _, h := range tr.hosts {
		h := h
		var mid func(*transport.Agent) *transport.Agent
		if h == dead {
			mid = func(a *transport.Agent) *transport.Agent { waitDrained(t, a); a.Abort(); return nil }
		}
		go func() {
			defer func() { done <- struct{}{} }()
			if h == dead {
				feedAndClose(t, ln.Addr().String(), h, tr.perHost[h], mid)
				return
			}
			// Live hosts heartbeat as they go — the wire's itemHeartbeat
			// path, and the watermark's way past the quiet tail.
			a, err := transport.NewAgent(agentConfig(ln.Addr().String(), h, t))
			if err != nil {
				t.Error(err)
				return
			}
			for i, r := range tr.perHost[h] {
				if err := a.Record(r); err != nil {
					t.Errorf("%s: record %d: %v", h, i, err)
					return
				}
				if i%50 == 49 {
					if err := a.Heartbeat(r.Timestamp); err != nil {
						t.Errorf("%s: heartbeat: %v", h, err)
						return
					}
				}
			}
			if err := a.Close(); err != nil {
				t.Errorf("%s: close: %v", h, err)
			}
		}()
	}
	for range tr.hosts {
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("agents did not finish — the dead host hung the run")
		}
	}
	if err := in.Sync(); err != nil {
		t.Fatal(err)
	}

	// The dead host's delivery clock must have stopped well short of the
	// live hosts'.
	var deadDelivered, maxDelivered time.Duration
	for _, l := range mon.HostLags() {
		if l.Host == dead {
			deadDelivered = l.Delivered
		}
		if l.Delivered > maxDelivered {
			maxDelivered = l.Delivered
		}
	}
	if deadDelivered == 0 || deadDelivered >= maxDelivered {
		t.Errorf("dead host delivery clock %v not behind the fleet's %v", deadDelivered, maxDelivered)
	}
	// The collector's handler notices the severed connection on its next
	// read — poll until the disconnect surfaces in Status.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st transport.HostStatus
		for _, s := range col.Status() {
			if s.Host == dead {
				st = s
			}
		}
		if st.Closed {
			t.Errorf("dead host closed cleanly?! %+v", st)
			break
		}
		if !st.Connected && st.Disconnects > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("dead host disconnect never surfaced: %+v", st)
			break
		}
		time.Sleep(time.Millisecond)
	}

	// The dead host restarts long after its components were force-sealed:
	// the replayed records must be absorbed as LateLinks, and the run must
	// then close cleanly end to end.
	feedAndClose(t, ln.Addr().String(), dead, tr.perHost[dead], nil)
	select {
	case <-col.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("collector never completed after restart; status: %+v", col.Status())
	}
	col.Shutdown()
	ln.Close()
	res := in.Close()
	if res.ForcedSeals == 0 {
		t.Error("no forced seals — the horizon never fired for the dead host's components")
	}
	if res.LateLinks == 0 {
		t.Error("no late links — the restarted host's stale records were not surfaced")
	}
	t.Logf("forced seals %d, late links %d", res.ForcedSeals, res.LateLinks)
}

// TestTransportSoak is the loopback soak: many agents, sustained load,
// one bounce, full equivalence against the offline baseline. `make soak`
// raises -soak.agents/-soak.requests well beyond the in-tree defaults.
func TestTransportSoak(t *testing.T) {
	nHosts, requests := *soakAgents, *soakRequests
	if nHosts < 2 {
		nHosts = 2
	}
	tr := genTrace(nHosts, requests)
	want := offlineFingerprints(t, tr)

	var fps []string
	col, in, ln := startCollector(t, tr,
		tr.opts(core.GraphSinkFunc(func(g *cag.Graph) { fps = append(fps, fingerprint(g)) })),
		core.IngestOptions{Buffer: 256, DrainEvery: 512})
	defer ln.Close()

	done := make(chan struct{}, len(tr.hosts))
	for i, h := range tr.hosts {
		h, bounce := h, i == 1
		var mid func(*transport.Agent) *transport.Agent
		if bounce {
			mid = func(a *transport.Agent) *transport.Agent { a.Bounce(); return a }
		}
		go func() {
			feedAndClose(t, ln.Addr().String(), h, tr.perHost[h], mid)
			done <- struct{}{}
		}()
	}
	deadline := time.After(10 * time.Minute)
	for range tr.hosts {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("soak agents did not finish")
		}
	}
	select {
	case <-col.Done():
	case <-deadline:
		t.Fatalf("collector incomplete; status: %+v", col.Status())
	}
	col.Shutdown()
	ln.Close()
	res := in.Close()

	if wantShards := offlineShards(t, tr); res.Shards != wantShards {
		t.Errorf("soak partitioned into %d components, in-order replay %d", res.Shards, wantShards)
	}
	if len(fps) != len(want) {
		t.Fatalf("soak emitted %d graphs, offline %d", len(fps), len(want))
	}
	for i := range want {
		if fps[i] != want[i] {
			t.Fatalf("soak graph %d differs from offline replay", i)
		}
	}
	t.Logf("soak: %d agents, %d requests, %d graphs, byte-identical to offline", nHosts, requests, len(fps))
}

// TestAgentRejectedByCollector: an undeclared host gets a terminal
// protocol error, not an endless reconnect loop.
func TestAgentRejectedByCollector(t *testing.T) {
	tr := genTrace(2, 4)
	col, in, ln := startCollector(t, tr, tr.opts(), core.IngestOptions{})
	defer func() { col.Shutdown(); ln.Close(); in.Close() }()

	a, err := transport.NewAgent(agentConfig(ln.Addr().String(), "intruder", t))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err = a.Record(tr.perHost["web"][0])
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("agent for undeclared host never saw the rejection")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(err.Error(), "unknown host") {
		t.Fatalf("unexpected terminal error: %v", err)
	}
}
