package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/live"
)

// pass is one full feed-to-Close of a workload. The run functions
// (runReplay, runWire) call startClock right before the first push and
// stopClock right after Close returns; everything between is the timed
// region, everything else (wiring, teardown, judging) is outside it.
type pass struct {
	w      *workload
	in     *input
	id     int
	closed bool // feed wire-paced closed-loop (its warm-up)

	sink     *verifySink
	otlp     *export.Exporter
	otlpSize countWriter
	dump     *export.DumpWriter

	// Traced pass only; nil buffers make every span call a no-op.
	drive, ingest *spanBuf
	probe         *wireProbe
	heapBase      uint64

	t0     time.Time
	before counters
	wallNs int64
	spent  counters // delta over the timed region

	stamps      []int64 // closed loop: ns since t0 after every stampEvery-th record
	fed         int64   // ns since t0 when the last record had been offered
	late        []int64 // paced: how late each record was offered, ns
	closeStart  int64   // wire: ns since t0 when the agents started closing
	res         *core.Result
	disconnects int
	heapLiveMB  float64

	lagP50, lagP99 float64 // ms, set by check
	failed         int     // failed requests, set by check
	unreferenced   int     // of them: graphs the set-up reference never emitted
}

func (p *pass) traced() bool { return p.drive != nil }

// bufs lists the traced pass's span buffers, one per goroutine role.
func (p *pass) bufs() []roleSpans {
	bs := []roleSpans{{"drive", p.drive}, {"ingest", p.ingest}}
	if p.probe != nil {
		bs = append(bs, roleSpans{"handlers", p.probe.buf})
	}
	return bs
}

// counters are the process-wide readings a pass is charged by difference.
type counters struct {
	cpuNs    int64 // user+sys, getrusage
	allocB   uint64
	allocN   uint64
	gcCycles uint64
	gcCPU    float64 // seconds, of the GC cycles finished so far
}

func readCounters() counters {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return counters{
		cpuNs:    ru.Utime.Nano() + ru.Stime.Nano(),
		allocB:   s[0].Value.Uint64(),
		allocN:   s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
	}
}

func (c counters) minus(o counters) counters {
	return counters{
		cpuNs: c.cpuNs - o.cpuNs, allocB: c.allocB - o.allocB, allocN: c.allocN - o.allocN,
		gcCycles: c.gcCycles - o.gcCycles, gcCPU: c.gcCPU - o.gcCPU,
	}
}

func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (p *pass) startClock() {
	p.before = readCounters()
	p.t0 = time.Now()
	p.sink.t0 = p.t0
	if p.traced() {
		p.drive.t0, p.ingest.t0 = p.t0, p.t0
		if p.probe != nil {
			p.probe.buf.t0 = p.t0
		}
	}
}

func (p *pass) stopClock() {
	p.wallNs = int64(time.Since(p.t0))
	p.spent = readCounters().minus(p.before)
}

func (p *pass) since() int64 { return int64(time.Since(p.t0)) }

// heapAtEOF is the Fig. 11 reading, traced pass only: live heap objects
// after a forced GC once all input is in and before anything closes,
// minus what was live before the session existed.
func (p *pass) heapAtEOF() {
	if !p.traced() {
		return
	}
	s := p.drive.begin(spForcedGC)
	runtime.GC()
	if live := heapObjectBytes(); live > p.heapBase {
		p.heapLiveMB = float64(live-p.heapBase) / 1e6
	}
	p.drive.end(s)
}

// sinks builds the pass's sink chain; buf is the span buffer of the
// goroutine the session emits on.
func (p *pass) sinks(buf *spanBuf) []core.GraphSink {
	var chain []core.GraphSink
	if p.w.export {
		p.otlp = export.NewExporter(&p.otlpSize)
		p.dump = export.NewDumpWriter(io.Discard)
		chain = append(chain,
			timeSink(buf, spSinkOTLP, p.otlp),
			timeSink(buf, spSinkLive, live.NewMonitor(live.Config{})),
			timeSink(buf, spSinkDump, p.dump))
	}
	return append(chain, timeSink(buf, spSinkVerify, p.sink))
}

// sinkErr surfaces the export sinks' sticky errors.
func (p *pass) sinkErr() error {
	if p.otlp != nil && p.otlp.Err() != nil {
		return p.otlp.Err()
	}
	if p.dump != nil && p.dump.Err() != nil {
		return p.dump.Err()
	}
	return nil
}

// timedSink records a span around each ConsumeGraph of one sink.
type timedSink struct {
	buf   *spanBuf
	name  spanName
	inner core.GraphSink
}

func timeSink(buf *spanBuf, name spanName, s core.GraphSink) core.GraphSink {
	if buf == nil {
		return s
	}
	return &timedSink{buf: buf, name: name, inner: s}
}

func (t *timedSink) ConsumeGraph(g *cag.Graph) {
	s := t.buf.begin(t.name)
	t.inner.ConsumeGraph(g)
	t.buf.end(s)
}

// countWriter discards what it is given and counts the bytes.
type countWriter struct{ n int64 }

func (c *countWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}

// emitLags sets, in ms, the median and 99th percentile over the pass's
// graphs of: the wall time the graph reached the sink, minus the time the
// record that made it decidable was offered (closed loop: the feeder's
// clock reading at the end of that record's block) or due (paced). It
// returns how many graphs the set-up reference never emitted.
func (p *pass) emitLags() (missing int) {
	lags := make([]int64, 0, len(p.sink.at))
	for k, id := range p.sink.endID {
		idx, ok := p.in.decidable[id]
		if !ok {
			missing++
			continue
		}
		from := p.fed
		if p.w.paced && !p.closed {
			from = p.in.due[idx]
		} else if b := int(idx) / stampEvery; b < len(p.stamps) {
			from = p.stamps[b]
		}
		lags = append(lags, p.sink.at[k]-from)
	}
	q := percentiles(lags, 0.5, 0.99)
	p.lagP50, p.lagP99 = q[0]/1e6, q[1]/1e6
	return missing
}

// check judges the pass's output after the timed region. An error means
// the output is wrong; failed requests are counted, not errors. A graph
// with no reference entry counts as a failed request.
func (p *pass) check(refHash uint64) error {
	p.sink.finish()
	p.unreferenced = p.emitLags()
	p.failed = p.sink.v.failed() + p.unreferenced
	if err := p.sinkErr(); err != nil {
		return err
	}
	if p.disconnects > 0 {
		return fmt.Errorf("pass %d: %d agent connections lost", p.id, p.disconnects)
	}
	if p.w.ref != refNone && refHash != 0 && p.sink.v.h.Sum64() != refHash {
		return fmt.Errorf("pass %d: dump stream hash %016x differs from the reference %016x", p.id, p.sink.v.h.Sum64(), refHash)
	}
	return nil
}
