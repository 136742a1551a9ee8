package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"
)

// Spans are recorded by the benchmark around its own calls into each
// layer — nothing inside the program is instrumented. A spanBuf belongs
// to one goroutine: spans nest by call order, so the parent of a new span
// is whichever span that goroutine has open. Every method is a no-op on a
// nil *spanBuf, which is how the untraced passes run the same code.

type spanName uint8

const (
	spPush spanName = iota
	spDrain
	spCloseHost
	spClose
	spRecord
	spIngestSync
	spAgentClose
	spCollectorDone
	spIngestClose
	spLoadgenWait
	spForcedGC
	spSinkBatch
	spSinkVerify
	spSinkOTLP
	spSinkLive
	spSinkDump
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spPush:          "core.Session.Push",
	spDrain:         "core.Session.Drain",
	spCloseHost:     "core.Session.CloseHost",
	spClose:         "core.Session.Close",
	spRecord:        "transport.Agent.Record",
	spIngestSync:    "core.Ingest.Sync",
	spAgentClose:    "transport.Agent.Close",
	spCollectorDone: "transport.Collector.Done",
	spIngestClose:   "core.Ingest.Close",
	spLoadgenWait:   "loadgen.wait",
	spForcedGC:      "runtime.GC",
	spSinkBatch:     "core.Ingest.PushBatch",
	spSinkVerify:    "bench.verify.ConsumeGraph",
	spSinkOTLP:      "export.Exporter.ConsumeGraph",
	spSinkLive:      "live.Monitor.ConsumeGraph",
	spSinkDump:      "export.DumpWriter.ConsumeGraph",
}

type span struct {
	name       spanName
	parent     int32 // index in the same buffer, -1 at top level
	start, end int64 // ns since the pass started
}

type spanBuf struct {
	t0    time.Time
	spans []span
	open  int32
}

func newSpanBuf(t0 time.Time, capacity int) *spanBuf {
	return &spanBuf{t0: t0, spans: make([]span, 0, capacity), open: -1}
}

func (b *spanBuf) begin(name spanName) int32 {
	if b == nil {
		return -1
	}
	i := int32(len(b.spans))
	b.spans = append(b.spans, span{name: name, parent: b.open, start: int64(time.Since(b.t0))})
	b.open = i
	return i
}

func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	b.spans[i].end = int64(time.Since(b.t0))
	b.open = b.spans[i].parent
}

// spanTotals is what the per-layer metrics read from a buffer: per name,
// how many spans, their summed duration and summed self time (duration
// minus the part covered by child spans).
type spanTotals struct {
	count [numSpanNames]int
	total [numSpanNames]int64
	self  [numSpanNames]int64
	top   int64 // summed duration of top-level spans
}

func (b *spanBuf) totals() spanTotals {
	var t spanTotals
	if b == nil {
		return t
	}
	child := make([]int64, len(b.spans))
	for _, s := range b.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		} else {
			t.top += s.end - s.start
		}
	}
	for i, s := range b.spans {
		t.count[s.name]++
		t.total[s.name] += s.end - s.start
		t.self[s.name] += s.end - s.start - child[i]
	}
	return t
}

// roleSpans is the span buffer of one goroutine role of a pass.
type roleSpans struct {
	role string
	buf  *spanBuf
}

// writeSpans writes the traced pass's buffers, one per goroutine role, as
// compact rows [name index, start ns, end ns, parent row or -1].
func writeSpans(path, workload string, pass int, bufs ...roleSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"pass\":%d,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\"],\"names\":[", workload, pass)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"goroutines\":{")
	var row []byte
	for k, rs := range bufs {
		if k > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:[", rs.role)
		for i, s := range rs.buf.spans {
			row = row[:0]
			if i > 0 {
				row = append(row, ',')
			}
			row = append(row, '[')
			row = strconv.AppendInt(row, int64(s.name), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, s.start, 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, s.end, 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(s.parent), 10)
			row = append(row, ']')
			w.Write(row)
		}
		w.WriteByte(']')
	}
	w.WriteString("}}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
