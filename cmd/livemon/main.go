// Command livemon runs the online correlator plus the live monitor — what
// a production deployment of PreciseTracer would do continuously. It has
// two front ends:
//
// Replay mode (-indir) reads per-host TCP_TRACE logs and replays them
// through the session in arrival order, in process.
//
// Listen mode (-listen) is the real deployment shape: it opens the
// network collector and correlates streams shipped by one traceagent per
// traced host, until every agent has closed its stream.
//
// Usage:
//
//	rubisgen -clients 300 -scale 0.1 -splitdir traces/
//	livemon -indir traces/ -interval 5s
//	livemon -indir traces/ -sealafter 50ms,db1=500ms -heartbeat 25ms
//	livemon -indir traces/ -sketched -maxpatterns 64 -export otlp=spans.ndjson
//	livemon -listen 127.0.0.1:9411 -hosts 'web=10.0.0.1,app1=10.0.0.2,db1=10.0.0.3' -sealafter 50ms &
//	traceagent -addr 127.0.0.1:9411 -indir traces/ -heartbeat 25ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/activity"
	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/transport"
)

func main() { cli.Main("livemon", run) }

func run() error {
	var (
		inDir       = flag.String("indir", "", "directory of per-host logs (replay mode)")
		listen      = flag.String("listen", "", "collector listen address (listen mode; agents ship streams with traceagent)")
		hostSpec    = flag.String("hosts", "", "listen mode topology: comma-separated host=ip[+ip...] entries declaring every agent and its traced addresses")
		window      = flag.Duration("window", 10*time.Millisecond, "ranker sliding window")
		interval    = flag.Duration("interval", 5*time.Second, "monitor aggregation interval (trace time)")
		baseline    = flag.Int("baseline", 3, "intervals used to learn the healthy baseline")
		threshold   = flag.Float64("threshold", 8, "alert threshold in latency-share percentage points")
		entryPort   = flag.Int("entryport", 80, "first-tier service port")
		chunk       = flag.Int("chunk", 256, "records pushed between drain rounds")
		sketched    = flag.Bool("sketched", false, "bounded-memory monitor: sketch per-interval pattern accounting instead of retaining CAGs")
		maxPatterns = flag.Int("maxpatterns", 0, "sketched mode pattern capacity per interval (0 = default)")
	)
	shared := cli.RegisterCorrelator(flag.CommandLine)
	heartbeatFlag := cli.RegisterHeartbeat(flag.CommandLine)
	pprofAddr := cli.RegisterPprof(flag.CommandLine)
	flag.Parse()
	heartbeat := *heartbeatFlag
	if (*inDir == "") == (*listen == "") {
		return cli.Usagef("exactly one of -indir (replay) or -listen (collector) is required")
	}
	if *listen != "" && *hostSpec == "" {
		return cli.Usagef("-listen needs -hosts (sessions declare every stream up front)")
	}
	if *listen != "" && heartbeat != 0 {
		return cli.Usagef("-heartbeat is replay-mode only; in listen mode agents heartbeat themselves (traceagent -heartbeat)")
	}
	if *window <= 0 {
		return cli.Usagef("-window must be > 0 (got %v)", *window)
	}
	if *interval <= 0 {
		return cli.Usagef("-interval must be > 0 (got %v)", *interval)
	}
	if *baseline <= 0 {
		return cli.Usagef("-baseline must be > 0 (got %d)", *baseline)
	}
	if *chunk <= 0 {
		return cli.Usagef("-chunk must be > 0 (got %d)", *chunk)
	}
	if *maxPatterns < 0 {
		return cli.Usagef("-maxpatterns must be >= 0 (got %d)", *maxPatterns)
	}
	if err := cli.ValidateHeartbeat(heartbeat); err != nil {
		return err
	}

	monitor := live.NewMonitor(live.Config{
		Interval:          *interval,
		BaselineIntervals: *baseline,
		Detector:          analysis.Detector{ThresholdPoints: *threshold},
		OnAlert:           func(a live.Alert) { fmt.Printf("ALERT %s\n", a) },
		Sketched:          *sketched,
		MaxPatterns:       *maxPatterns,
	})
	opts := core.Options{
		Window:     *window,
		EntryPorts: []int{*entryPort},
		// The monitor is the first sink: it sees every CAG before the
		// export sinks, all on the emitter goroutine.
		Sinks: []core.GraphSink{monitor},
	}
	exports, err := shared.Apply(&opts)
	if err != nil {
		return err
	}
	if bound, stopPprof, err := cli.StartPprof(*pprofAddr); err != nil {
		return err
	} else if bound != "" {
		defer stopPprof()
		fmt.Fprintf(os.Stderr, "pprof: serving profiles on http://%s/debug/pprof/\n", bound)
	}

	if *listen != "" {
		err = serveCollector(*listen, *hostSpec, opts, monitor, *chunk)
	} else {
		err = replay(*inDir, opts, monitor, *chunk, heartbeat)
	}
	if cerr := exports.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Print(exports.Summary())
	}
	return err
}

// parseHostsSpec parses "web=10.0.0.1,app1=10.0.0.2+10.0.0.3" into the
// declared host list (in spec order) and the IP-to-host topology map.
func parseHostsSpec(spec string) (hosts []string, ipToHost map[string]string, err error) {
	ipToHost = make(map[string]string)
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		host, ips, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || host == "" || ips == "" {
			return nil, nil, fmt.Errorf("hosts entry %q: want host=ip[+ip...]", entry)
		}
		if seen[host] {
			return nil, nil, fmt.Errorf("hosts entry %q: duplicate host %q", entry, host)
		}
		seen[host] = true
		hosts = append(hosts, host)
		for _, ip := range strings.Split(ips, "+") {
			if ip == "" {
				return nil, nil, fmt.Errorf("hosts entry %q: empty ip", entry)
			}
			if prev, dup := ipToHost[ip]; dup {
				return nil, nil, fmt.Errorf("ip %q claimed by both %q and %q", ip, prev, host)
			}
			ipToHost[ip] = host
		}
	}
	return hosts, ipToHost, nil
}

// serveCollector is listen mode: network collector → serialized ingest →
// session, running until every declared agent has closed its stream.
func serveCollector(addr, hostSpec string, opts core.Options, monitor *live.Monitor, chunk int) error {
	hosts, ipToHost, err := parseHostsSpec(hostSpec)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	opts.IPToHost = ipToHost
	sess, err := core.NewSession(opts, hosts)
	if err != nil {
		return err
	}
	// OnApplied and the sinks both fire on the ingest goroutine, so the
	// monitor sees deliveries and CAGs without extra locking; the
	// wall-clock flush keeps decidable CAGs moving through traffic lulls.
	// Release returns decoded transport records to the activity pool once
	// the session has copied what it keeps — the collector decodes every
	// batch into pooled storage (activity.NewRecord).
	ingest := core.NewIngest(sess, core.IngestOptions{
		DrainEvery:    chunk,
		FlushInterval: 250 * time.Millisecond,
		OnApplied:     monitor.ObserveDelivery,
		Release:       activity.ReleaseRecord,
	})
	col, err := transport.NewCollector(ingest, transport.CollectorConfig{
		Hosts: hosts,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("collector listening on %s for %d agents: %s\n", ln.Addr(), len(hosts), strings.Join(hosts, ", "))
	serveErr := make(chan error, 1)
	go func() { serveErr <- col.Serve(ln) }()
	select {
	case <-col.Done():
	case err := <-serveErr:
		if err != nil {
			return err
		}
		return errors.New("listener closed before all agents finished")
	}
	col.Shutdown()
	ln.Close()
	res := ingest.Close()
	monitor.Flush()

	applied := 0
	for _, st := range col.Status() {
		fmt.Printf("agent %s: %d items applied, newest %v, %d disconnects\n",
			st.Host, st.LastSeq, st.LastTs, st.Disconnects)
		applied += int(st.LastSeq)
	}
	fmt.Printf("collected %d items from %d agents; %d causal paths; correlation %v\n",
		applied, len(hosts), monitor.Stats().Ingested, res.CorrelationTime.Round(time.Millisecond))
	report(res, monitor, opts.Workers)
	printFront(ingest.Stats())
	return nil
}

// printFront reports the ingest's ordering front beside the lag table:
// how many records it had to hold to restore cross-host timestamp order,
// and on whom — the first place a slow or silent agent shows.
func printFront(st core.IngestStats) {
	waiting := "nothing waiting"
	if st.Bounding != "" {
		waiting = "oldest held record waiting on " + st.Bounding
	}
	fmt.Printf("\ningest ordering front: %d records held (peak %d), %s\n", st.Held, st.PeakHeld, waiting)
	fmt.Printf("  %-12s %8s %16s %s\n", "host", "held", "newest_received", "stream")
	for _, h := range st.Hosts {
		stream := "open"
		if h.Ended {
			stream = "closed"
		}
		fmt.Printf("  %-12s %8d %16v %s\n", h.Host, h.Held, h.Bound, stream)
	}
}

// replay is the original in-process mode: read the logs, push in arrival
// order.
func replay(inDir string, opts core.Options, monitor *live.Monitor, chunk int, heartbeat time.Duration) error {
	perHost, err := activity.ReadHostLogs(inDir)
	if err != nil {
		return err
	}
	var hosts []string
	for h := range perHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)

	merged := activity.Merge(perHost)
	opts.IPToHost = activity.InferIPToHost(merged)

	// Every worker count runs the same streaming engine; its watermark
	// emitter delivers CAGs in the END-timestamp order Monitor.Ingest
	// needs. -sealafter turns it continuous — CAGs flow without waiting
	// for any stream to close — and per-host overrides let a chronically
	// lagging agent keep a longer horizon without splitting its requests.
	sess, err := core.NewSession(opts, hosts)
	if err != nil {
		return err
	}
	// Replay in approximate arrival order: global timestamp order,
	// pushed per-host (which preserves each host's local order).
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Timestamp < merged[j].Timestamp })
	var pushed int
	var lastBeat time.Duration
	for _, a := range merged {
		if err := sess.Push(a); err != nil {
			return err
		}
		pushed++
		// The replay is globally timestamp-ordered, so at clock t every
		// agent can honestly assert it holds nothing older than t — the
		// heartbeat a real deployment's agents would send on a timer.
		if heartbeat > 0 && a.Timestamp >= lastBeat+heartbeat {
			lastBeat = a.Timestamp
			for _, h := range hosts {
				if err := sess.Heartbeat(h, a.Timestamp); err != nil {
					return err
				}
			}
		}
		if pushed%chunk == 0 {
			sess.Drain()
		}
	}
	res := sess.Close()
	monitor.Flush()

	fmt.Printf("replayed %d activities from %d hosts; %d causal paths; correlation %v\n",
		pushed, len(hosts), monitor.Stats().Ingested, res.CorrelationTime.Round(time.Millisecond))
	report(res, monitor, opts.Workers)
	return nil
}

// report prints the shared tail of both modes: engine statistics, monitor
// summary, history and per-host lag.
func report(res *core.Result, monitor *live.Monitor, workers int) {
	if res.Shards > 0 {
		fmt.Printf("streaming engine: %d flow components across %d workers; per-shard peaks: %d buffered activities, %d resident vertices (largest shard)\n",
			res.Shards, workers, res.PeakBufferedActivities, res.PeakResidentVertices)
	}
	if res.ForcedSeals > 0 || res.LateLinks > 0 {
		fmt.Printf("continuous mode: %d forced seals, %d late links (CAGs may be split; see core.Options.SealAfter)\n",
			res.ForcedSeals, res.LateLinks)
	}
	st := monitor.Stats()
	if st.OutOfOrder > 0 {
		fmt.Printf("warning: %d CAGs arrived out of END-timestamp order; interval statistics may be skewed\n", st.OutOfOrder)
	}
	if st.SkippedEmpty > 0 {
		fmt.Printf("quiet gaps: %d empty intervals skipped (recorded per interval in the gap column)\n", st.SkippedEmpty)
	}
	fmt.Print(monitor.Summary())
	fmt.Println()
	fmt.Print(monitor.HistoryTable())
	if tbl := monitor.QuantileTable(); tbl != "" {
		fmt.Println("\nlifetime quantiles (sketched; error within the configured epsilon):")
		fmt.Print(tbl)
	}
	if tbl := monitor.HostLagTable(); tbl != "" {
		fmt.Println("\nper-host lag (newest correlated record vs newest overall; tune -sealafter host= overrides against this):")
		fmt.Print(tbl)
	}
}
