package transport_test

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/transport"
)

// releaseSink takes the collector's decoded records and recycles them at
// once, so a benchmark behind it measures the transport tier alone.
type releaseSink struct{}

func (releaseSink) Push(a *activity.Activity) error {
	activity.ReleaseRecord(a)
	return nil
}

func (releaseSink) PushBatch(recs []*activity.Activity) error {
	for _, a := range recs {
		activity.ReleaseRecord(a)
	}
	return nil
}

func (releaseSink) Heartbeat(string, time.Duration) error { return nil }
func (releaseSink) CloseHost(string) error                { return nil }

// BenchmarkAgentCollectorLoopback ships a fixed 65 538-record trace from
// three agents (default batching and window) over 127.0.0.1 to a
// collector in front of releaseSink, and reports what the whole tier —
// agents, connections, collector handlers — allocates per record,
// connection set-up and teardown included. `make bench-allocs` gates
// B/record and allocs/record.
func BenchmarkAgentCollectorLoopback(b *testing.B) {
	tr := genTrace(3, 10923)
	records := 0
	for _, h := range tr.hosts {
		records += len(tr.perHost[h])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shipLoopback(b, tr)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(records)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
}

// shipLoopback runs one collector and one agent per host until every
// host has closed cleanly.
func shipLoopback(b *testing.B, tr *trace) {
	col, err := transport.NewCollector(releaseSink{}, transport.CollectorConfig{Hosts: tr.hosts})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- col.Serve(ln) }()
	var wg sync.WaitGroup
	for _, h := range tr.hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := transport.NewAgent(transport.AgentConfig{Addr: ln.Addr().String(), Host: h})
			if err != nil {
				b.Error(err)
				return
			}
			for _, r := range tr.perHost[h] {
				if err := a.Record(r); err != nil {
					b.Error(err)
					a.Abort()
					return
				}
			}
			if err := a.Close(); err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
	if !b.Failed() {
		<-col.Done()
	}
	col.Shutdown()
	ln.Close()
	if err := <-served; err != nil {
		b.Fatal(err)
	}
}
