package export

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"unsafe"

	"repro/internal/cag"
)

// Exporter streams one OTLP-JSON export request per graph, one JSON
// object per line (NDJSON — the shape the OpenTelemetry collector's
// file receiver replays). Each line goes to the writer in one Write.
// Errors are sticky: the first write failure silences all further
// output and is reported by Err and Close, so a full pipeline run never
// aborts mid-stream on a dead disk.
//
// Exporter implements core.GraphSink. Like every sink it runs on the
// emitter goroutine; no locking is needed.
type Exporter struct {
	w      io.Writer
	c      io.Closer
	enc    *encoder
	line   []byte
	err    error
	graphs int
	spans  int
}

// NewExporter writes OTLP-JSON lines to w.
func NewExporter(w io.Writer) *Exporter {
	return &Exporter{w: w, enc: newEncoder()}
}

// NewFileExporter creates (truncates) path and writes OTLP-JSON lines
// to it through a buffer. Close flushes and closes the file.
func NewFileExporter(path string) (*Exporter, error) {
	f, err := createBuffered(path)
	if err != nil {
		return nil, err
	}
	e := NewExporter(f)
	e.c = f
	return e, nil
}

// ConsumeGraph implements core.GraphSink.
func (e *Exporter) ConsumeGraph(g *cag.Graph) {
	if e.err != nil {
		return
	}
	e.line = append(e.line[:0], requestHead...)
	e.line = e.enc.appendResourceSpans(e.line, g)
	e.line = append(e.line, requestTail+"\n"...)
	if _, err := e.w.Write(e.line); err != nil {
		e.err = fmt.Errorf("export: %w", err)
		return
	}
	e.graphs++
	e.spans += g.Len()
}

// Graphs returns the number of traces exported so far.
func (e *Exporter) Graphs() int { return e.graphs }

// Spans returns the number of spans exported so far.
func (e *Exporter) Spans() int { return e.spans }

// Err returns the sticky error, if any.
func (e *Exporter) Err() error { return e.err }

// Close flushes and closes the underlying file (when opened by
// NewFileExporter) and returns the sticky error.
func (e *Exporter) Close() error {
	if e.c != nil {
		if err := e.c.Close(); err != nil && e.err == nil {
			e.err = fmt.Errorf("export: %w", err)
		}
		e.c = nil
	}
	return e.err
}

// HTTPExporter POSTs OTLP-JSON export requests to an OTLP/HTTP traces
// endpoint (conventionally …/v1/traces), batching BatchSize graphs per
// request. Errors are sticky, like Exporter's. Close flushes the final
// partial batch.
type HTTPExporter struct {
	url    string
	client *http.Client

	batchSize int
	enc       *encoder
	body      []byte // the pending request, open after the last resourceSpans element
	batched   int    // graphs in body
	err       error
	graphs    int
	posts     int
}

// DefaultHTTPBatch is the number of graphs coalesced per POST.
const DefaultHTTPBatch = 64

// NewHTTPExporter targets url with http.DefaultClient and the default
// batch size.
func NewHTTPExporter(url string) *HTTPExporter {
	return &HTTPExporter{url: url, client: http.DefaultClient, batchSize: DefaultHTTPBatch, enc: newEncoder()}
}

// SetBatchSize overrides the graphs-per-POST coalescing factor.
func (h *HTTPExporter) SetBatchSize(n int) {
	if n > 0 {
		h.batchSize = n
	}
}

// ConsumeGraph implements core.GraphSink.
func (h *HTTPExporter) ConsumeGraph(g *cag.Graph) {
	if h.err != nil {
		return
	}
	if h.batched == 0 {
		h.body = append(h.body[:0], requestHead...)
	} else {
		h.body = append(h.body, ',')
	}
	h.body = h.enc.appendResourceSpans(h.body, g)
	h.batched++
	h.graphs++
	if h.batched >= h.batchSize {
		h.flush()
	}
}

func (h *HTTPExporter) flush() {
	if h.err != nil || h.batched == 0 {
		return
	}
	body := append(h.body, requestTail...)
	// The transport may read a request body even after Post returns (see
	// http.RoundTripper), so the next batch goes into a fresh buffer.
	h.body, h.batched = nil, 0
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		h.err = fmt.Errorf("export: %w", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		h.err = fmt.Errorf("export: %s returned %s", h.url, resp.Status)
		return
	}
	h.posts++
}

// Graphs returns the number of graphs accepted so far (including any
// still buffered).
func (h *HTTPExporter) Graphs() int { return h.graphs }

// Posts returns the number of successful (2xx) HTTP flushes.
func (h *HTTPExporter) Posts() int { return h.posts }

// Err returns the sticky error, if any.
func (h *HTTPExporter) Err() error { return h.err }

// Close flushes the trailing partial batch and returns the sticky
// error.
func (h *HTTPExporter) Close() error {
	h.flush()
	return h.err
}

// DOTDir writes each emitted graph as a standalone Graphviz file
// (cag-000001.dot, cag-000002.dot, …) titled with its pattern name —
// the per-graph form of the CLI's -dot flag, usable as a sink while a
// live monitor runs alongside. Errors are sticky.
type DOTDir struct {
	dir string
	n   int
	err error
}

// NewDOTDir creates dir (if needed) and returns the sink.
func NewDOTDir(dir string) (*DOTDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	return &DOTDir{dir: dir}, nil
}

// ConsumeGraph implements core.GraphSink.
func (d *DOTDir) ConsumeGraph(g *cag.Graph) {
	if d.err != nil {
		return
	}
	d.n++
	path := filepath.Join(d.dir, fmt.Sprintf("cag-%06d.dot", d.n))
	if err := os.WriteFile(path, []byte(cag.ToDOT(g, cag.PatternName(g))), 0o644); err != nil {
		d.err = fmt.Errorf("export: %w", err)
	}
}

// Graphs returns the number of files written.
func (d *DOTDir) Graphs() int { return d.n }

// Err returns the sticky error, if any.
func (d *DOTDir) Err() error { return d.err }

// DumpWriter appends each emitted graph's canonical textual dump —
// cag.Dump plus an identity header — to one writer, the golden-capture
// form used to byte-diff two pipeline runs. Each dump goes to the
// writer in one Write. Errors are sticky.
type DumpWriter struct {
	w       io.Writer
	c       io.Closer
	n       int
	text    []byte
	pattern []byte
	err     error
}

// NewDumpWriter writes dumps to w.
func NewDumpWriter(w io.Writer) *DumpWriter { return &DumpWriter{w: w} }

// NewDumpFile creates (truncates) path for dump output through a
// buffer; Close flushes and closes it.
func NewDumpFile(path string) (*DumpWriter, error) {
	f, err := createBuffered(path)
	if err != nil {
		return nil, err
	}
	return &DumpWriter{w: f, c: f}, nil
}

// ConsumeGraph implements core.GraphSink. The header line is
//
//	=== graph N pattern="NAME" latency=DURATION forced=BOOL late=BOOL
//
// with the pattern name quoted as strconv.Quote does.
func (d *DumpWriter) ConsumeGraph(g *cag.Graph) {
	if d.err != nil {
		return
	}
	d.n++
	forced, late := g.Provenance()
	d.pattern = cag.AppendPatternName(d.pattern[:0], g)
	b := append(d.text[:0], "=== graph "...)
	b = strconv.AppendInt(b, int64(d.n), 10)
	b = append(b, " pattern="...)
	// AppendQuote only reads its argument, and d.pattern is not written
	// until the next graph, so the string may alias it.
	b = strconv.AppendQuote(b, unsafe.String(unsafe.SliceData(d.pattern), len(d.pattern)))
	b = append(b, " latency="...)
	b = append(b, g.Latency().String()...)
	b = append(b, " forced="...)
	b = strconv.AppendBool(b, forced)
	b = append(b, " late="...)
	b = strconv.AppendBool(b, late)
	b = append(b, '\n')
	b = cag.AppendDump(b, g)
	b = append(b, '\n')
	d.text = b
	if _, err := d.w.Write(b); err != nil {
		d.err = fmt.Errorf("export: %w", err)
	}
}

// Graphs returns the number of dumps written.
func (d *DumpWriter) Graphs() int { return d.n }

// Err returns the sticky error, if any.
func (d *DumpWriter) Err() error { return d.err }

// Close flushes and closes the underlying file (when opened by
// NewDumpFile) and returns the sticky error.
func (d *DumpWriter) Close() error {
	if d.c != nil {
		if err := d.c.Close(); err != nil && d.err == nil {
			d.err = fmt.Errorf("export: %w", err)
		}
		d.c = nil
	}
	return d.err
}

// bufferedFile is the buffered output file behind NewFileExporter and
// NewDumpFile. The buffer holds several graphs (a RUBiS graph is about
// 10 kB of OTLP-JSON, 1 kB of dump), so the write syscalls are shared
// among them rather than issued once per graph.
type bufferedFile struct {
	*bufio.Writer
	f *os.File
}

func createBuffered(path string) (*bufferedFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	return &bufferedFile{Writer: bufio.NewWriterSize(f, 64<<10), f: f}, nil
}

// Close flushes the buffer and closes the file, reporting the first
// error.
func (b *bufferedFile) Close() error {
	err := b.Flush()
	if cerr := b.f.Close(); err == nil {
		err = cerr
	}
	return err
}
