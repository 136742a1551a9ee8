// Package export turns finished CAGs into external formats: OTLP-JSON
// spans (the OpenTelemetry wire shape, so any OTLP-compatible backend
// can render a correlated request as a distributed trace), Graphviz DOT
// files, and canonical textual dumps. Every emitter implements
// core.GraphSink so it plugs into the session's emission chain next to
// a live.Monitor.
//
// The span mapping (one trace per CAG):
//
//	CAG vertex            → span (name "TYPE host/program")
//	adjacent context edge → parentSpanId (attribute cag.parent_edge=ctx)
//	message edge          → span link; also the parent when the vertex
//	                        has no context parent (cag.parent_edge=msg)
//	forced seal / late link provenance → span events on the root span
//
// Timestamps are the node-local activity times rendered as unix-nano
// strings; cross-host spans therefore show raw skew, exactly like the
// cag.Timeline rendering. Trace and span IDs are deterministic FNV
// hashes of the graph's identity, so re-exporting the same trace is
// idempotent.
//
// The JSON is appended straight into a buffer the sink reuses, with no
// intermediate span tree. It is byte-identical to what encoding/json
// writes for the OTLP/JSON shape of opentelemetry-proto's
// ExportTraceServiceRequest (lowerCamelCase keys, hex IDs, 64-bit
// integers as decimal strings, empty parentSpanId, events and links
// omitted, and encoding/json's string escaping); export_test.go keeps
// that struct tree as the oracle the writer is checked against.
package export

import (
	"encoding/hex"
	"hash"
	"hash/fnv"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/activity"
	"repro/internal/cag"
)

// The fixed JSON around one graph's spans: a resourceSpans element for
// service precisetracer with one scope, and the request wrapping it.
const (
	requestHead  = `{"resourceSpans":[`
	requestTail  = `]}`
	resourceHead = `{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"precisetracer"}}]},"scopeSpans":[{"scope":{"name":"repro/internal/export"},"spans":[`
	resourceTail = `]}]}`
)

// encoder appends the OTLP-JSON of one graph at a time. Its hasher and
// scratch buffers are reused across graphs, so a warm encoder does not
// allocate.
type encoder struct {
	h       hash.Hash // FNV-128a
	sum     [16]byte
	traceID [32]byte        // hex of sum
	buf     []byte          // the graph's signature, hash input and pattern name
	tmp     []byte          // one composed string value before escaping
	ends    []time.Duration // span end per vertex index
}

func newEncoder() *encoder { return &encoder{h: fnv.New128a()} }

// identify sets e.traceID to g's deterministic 32-hex-digit trace ID and
// returns g's signature (backed by e.buf). The ID is FNV-128a over the
// pattern signature, root/end timestamps, the root context and the
// first underlying record ID — stable across re-exports, distinct
// across requests of the same pattern. The all-zero ID (invalid in
// OTLP) is remapped.
func (e *encoder) identify(g *cag.Graph) (sig []byte) {
	b := cag.AppendSignature(e.buf[:0], g)
	n := len(b)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(g.Len()), 10)
	b = append(b, '|')
	if root := g.Root(); root != nil {
		b = strconv.AppendInt(b, int64(root.Timestamp), 10)
		b = append(b, '|')
		b = root.Ctx.AppendTo(b)
		b = append(b, '|')
		if len(root.Records) > 0 {
			b = strconv.AppendInt(b, root.Records[0].ID, 10)
			b = append(b, '|')
		}
	}
	if end := g.End(); end != nil {
		b = strconv.AppendInt(b, int64(end.Timestamp), 10)
	}
	e.buf = b
	e.h.Reset()
	e.h.Write(b)
	sum := e.h.Sum(e.sum[:0])
	zero := true
	for _, x := range sum {
		if x != 0 {
			zero = false
			break
		}
	}
	if zero {
		sum[len(sum)-1] = 1
	}
	hex.Encode(e.traceID[:], sum)
	return b[:n]
}

// FNV-64a, as hash/fnv computes it.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

func fnv64a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnv64Prime
	}
	return h
}

// spanSeed is the FNV-64a state after "traceID/", the prefix every span
// ID of the trace shares.
func spanSeed(traceID []byte) uint64 {
	return fnv64a(fnv64a(fnv64Offset, traceID), []byte{'/'})
}

// appendSpanID appends the deterministic span ID of vertex index, as 16
// hex digits: FNV-64a over "traceID/index", continued from seed.
func appendSpanID(dst []byte, seed uint64, index int) []byte {
	var digits [20]byte
	sum := fnv64a(seed, strconv.AppendInt(digits[:0], int64(index), 10))
	if sum == 0 {
		sum = 1
	}
	const hexDigits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[sum>>shift&0xf])
	}
	return dst
}

// spanEnds returns each vertex's span end time: the latest direct-child
// timestamp (the work the activity caused), or its own when it is a
// leaf — so a SEND span covers the network hop to its RECEIVE. Every
// child edge is exactly one parent link, so one pass over the parents
// visits them all.
func (e *encoder) spanEnds(g *cag.Graph) []time.Duration {
	ends := e.ends[:0]
	for i := 0; i < g.Len(); i++ {
		ends = append(ends, g.Vertex(i).Timestamp)
	}
	for i := 0; i < g.Len(); i++ {
		v := g.Vertex(i)
		if p := v.CtxParent(); p != nil && v.Timestamp > ends[p.Index()] {
			ends[p.Index()] = v.Timestamp
		}
		if p := v.MsgParent(); p != nil && v.Timestamp > ends[p.Index()] {
			ends[p.Index()] = v.Timestamp
		}
	}
	e.ends = ends
	return ends
}

// appendResourceSpans appends the resourceSpans element holding g's
// trace, per the package mapping table.
func (e *encoder) appendResourceSpans(dst []byte, g *cag.Graph) []byte {
	sig := e.identify(g)
	sigEnd := len(e.buf)
	e.buf = cag.AppendPatternName(e.buf, g)
	pattern := e.buf[sigEnd:]
	seed := spanSeed(e.traceID[:])
	ends := e.spanEnds(g)

	dst = append(dst, resourceHead...)
	for i := 0; i < g.Len(); i++ {
		v := g.Vertex(i)
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"traceId":"`...)
		dst = append(dst, e.traceID[:]...)
		dst = append(dst, `","spanId":"`...)
		dst = appendSpanID(dst, seed, i)
		parent, parentEdge := v.CtxParent(), "ctx"
		if parent == nil {
			parent, parentEdge = v.MsgParent(), "msg"
		}
		if parent != nil {
			dst = append(dst, `","parentSpanId":"`...)
			dst = appendSpanID(dst, seed, parent.Index())
		}
		e.tmp = append(e.tmp[:0], v.Type.String()...)
		e.tmp = append(e.tmp, ' ')
		e.tmp = append(e.tmp, v.Ctx.Host...)
		e.tmp = append(e.tmp, '/')
		e.tmp = append(e.tmp, v.Ctx.Program...)
		dst = append(dst, `","name":`...)
		dst = appendJSONString(dst, e.tmp)
		dst = append(dst, `,"kind":1,"startTimeUnixNano":"`...)
		dst = strconv.AppendInt(dst, v.Timestamp.Nanoseconds(), 10)
		dst = append(dst, `","endTimeUnixNano":"`...)
		dst = strconv.AppendInt(dst, ends[i].Nanoseconds(), 10)
		dst = append(dst, `","attributes":[`...)
		dst = appendStrAttr(dst, "cag.type", v.Type.String())
		dst = append(dst, ',')
		dst = appendStrAttr(dst, "cag.host", v.Ctx.Host)
		dst = append(dst, ',')
		dst = appendStrAttr(dst, "cag.program", v.Ctx.Program)
		dst = append(dst, ',')
		dst = appendIntAttr(dst, "cag.pid", int64(v.Ctx.PID))
		dst = append(dst, ',')
		dst = appendIntAttr(dst, "cag.tid", int64(v.Ctx.TID))
		if parent != nil {
			dst = append(dst, ',')
			dst = appendStrAttr(dst, "cag.parent_edge", parentEdge)
		}
		if v.Chan != (activity.Channel{}) {
			e.tmp = v.Chan.AppendTo(e.tmp[:0])
			dst = append(dst, ',')
			dst = appendStrAttr(dst, "net.channel", e.tmp)
		}
		if v.Size > 0 {
			dst = append(dst, ',')
			dst = appendIntAttr(dst, "cag.size_bytes", v.Size)
		}
		if i == 0 {
			dst = append(dst, ',')
			dst = appendStrAttr(dst, "cag.signature", sig)
			dst = append(dst, ',')
			dst = appendStrAttr(dst, "cag.pattern", pattern)
			dst = append(dst, ',')
			dst = appendIntAttr(dst, "cag.latency_ns", g.Latency().Nanoseconds())
			dst = append(dst, ',')
			dst = appendIntAttr(dst, "cag.vertices", int64(g.Len()))
		}
		dst = append(dst, ']')
		if i == 0 {
			dst = appendProvenanceEvents(dst, g, ends[0])
		}
		// Message edges are always links, even when one doubles as the
		// parent — a backend can reconstruct the full edge set from
		// links (msg) plus parent_edge=ctx parents (ctx).
		if p := v.MsgParent(); p != nil {
			dst = append(dst, `,"links":[{"traceId":"`...)
			dst = append(dst, e.traceID[:]...)
			dst = append(dst, `","spanId":"`...)
			dst = appendSpanID(dst, seed, p.Index())
			dst = append(dst, `","attributes":[{"key":"cag.edge","value":{"stringValue":"msg"}}]}]`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, resourceTail...)
}

// appendProvenanceEvents appends the root span's events field, if the
// graph has a forced seal or late link to report, stamped at end.
func appendProvenanceEvents(dst []byte, g *cag.Graph, end time.Duration) []byte {
	forced, late := g.Provenance()
	if !forced && !late {
		return dst
	}
	dst = append(dst, `,"events":[`...)
	if forced {
		dst = appendEvent(dst, end, "cag.forced_seal")
	}
	if late {
		if forced {
			dst = append(dst, ',')
		}
		dst = appendEvent(dst, end, "cag.late_link")
	}
	return append(dst, ']')
}

// appendEvent appends one attribute-less span event. name must need no
// JSON escaping.
func appendEvent(dst []byte, at time.Duration, name string) []byte {
	dst = append(dst, `{"timeUnixNano":"`...)
	dst = strconv.AppendInt(dst, at.Nanoseconds(), 10)
	dst = append(dst, `","name":"`...)
	dst = append(dst, name...)
	return append(dst, `"}`...)
}

// appendStrAttr appends a string-valued KeyValue. key must need no JSON
// escaping.
func appendStrAttr[S string | []byte](dst []byte, key string, val S) []byte {
	dst = append(dst, `{"key":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","value":{"stringValue":`...)
	dst = appendJSONString(dst, val)
	return append(dst, `}}`...)
}

// appendIntAttr appends an int-valued KeyValue; OTLP/JSON carries 64-bit
// integers as decimal strings. key must need no JSON escaping.
func appendIntAttr(dst []byte, key string, val int64) []byte {
	dst = append(dst, `{"key":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","value":{"intValue":"`...)
	dst = strconv.AppendInt(dst, val, 10)
	return append(dst, `"}}`...)
}

// appendJSONString appends s as a quoted JSON string, escaped exactly as
// encoding/json does with HTML escaping on (its default): '"' and '\'
// backslashed; \b \f \n \r \t short; other control bytes and '<' '>'
// '&' as \u00XX; each invalid UTF-8 byte as \ufffd; U+2028 and U+2029
// as \u2028 and \u2029.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
