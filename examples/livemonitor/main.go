// Live monitoring: stream CAGs into an online detector and catch a fault
// the moment its latency signature appears — the production deployment mode
// the paper's conclusion motivates.
//
// The example runs a healthy RUBiS session followed by one with a database
// lock; CAGs stream straight from the correlator into the monitor, which
// learns a per-pattern baseline from the healthy interval and then raises
// alerts naming the suspect component.
//
// Run with: go run ./examples/livemonitor
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/analysis"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rubis"
)

func main() {
	monitor := live.NewMonitor(live.Config{
		Interval:          2 * time.Second,
		BaselineIntervals: 2,
		MinRequests:       10,
		Detector:          analysis.Detector{ThresholdPoints: 10},
		OnAlert: func(a live.Alert) {
			fmt.Printf("ALERT %s\n", a)
		},
	})

	var shift time.Duration
	stream := func(label string, faults rubis.Faults) {
		cfg := rubis.DefaultConfig(200)
		cfg.Scale = 0.02
		cfg.Faults = faults
		res, err := rubis.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Each run's virtual clock restarts; shift the trace to keep the
		// monitor's wall time monotone across runs. Emitted graphs are
		// immutable, so the shift happens before correlation.
		last := res.Trace[len(res.Trace)-1].Timestamp
		for _, a := range res.Trace {
			a.Timestamp += shift
		}
		count := 0
		// The monitor is a sink: it receives each finished CAG as the
		// correlator emits it — the engine never accumulates, the monitor
		// sees requests "live".
		_, err = core.New(core.Options{
			Window:     10 * time.Millisecond,
			EntryPorts: []int{rubis.EntryPort},
			IPToHost:   res.IPToHost,
			Sinks: []core.GraphSink{
				monitor,
				core.GraphSinkFunc(func(*cag.Graph) { count++ }),
			},
		}).CorrelateTrace(res.Trace)
		if err != nil {
			log.Fatal(err)
		}
		shift += last + time.Second
		fmt.Printf("streamed %5d CAGs from the %s run\n", count, label)
	}

	fmt.Println("phase 1: healthy traffic (monitor learns baselines)...")
	stream("healthy", rubis.Faults{})
	fmt.Println("phase 2: the items table gets locked...")
	stream("faulty", rubis.Faults{DBLock: true, DBLockHold: 4 * time.Millisecond})
	monitor.Flush()

	fmt.Printf("\n%s", monitor.Summary())
}
