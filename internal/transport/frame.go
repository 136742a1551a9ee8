// Package transport is the agent→collector network ingestion tier: the
// paper's deployment (§3.1) runs one kernel tracing agent per host, each
// shipping its TCP_TRACE stream to the central correlator. This package
// carries those streams over TCP as length-prefixed binary frames of the
// compact record codec (activity.AppendBinary), with a per-agent
// sequence/ack protocol that makes reconnects lossless and restarts
// idempotent.
//
// Protocol (one TCP connection per agent, framed both ways):
//
//	agent → collector   HELLO   version, host name
//	collector → agent   ACK     highest item sequence applied for host
//	agent → collector   BATCH   firstSeq + items (records, heartbeats)
//	collector → agent   ACK     after each batch
//	agent → collector   CLOSE   clean end of the host's stream
//	collector → agent   CLOSE   close acknowledged (stream fully received)
//	collector → agent   ERROR   terminal: message, connection drops
//
// Items — records and heartbeats — carry per-agent monotone sequence
// numbers assigned in offer order. The collector applies only items with
// seq above its per-host high-water mark, so an agent may resend freely:
// after a reconnect it replays everything unacknowledged, and a restarted
// agent re-offers its whole log from the start (sequence numbers are
// positional, so the replay skips the applied prefix). Exactly-once
// application falls out of at-least-once delivery plus the monotone seq.
//
// Backpressure is TCP itself: the collector stops reading a connection
// while the correlator's bounded ingest queue is full, the socket buffers
// fill, and the agent's sends block until the pipeline catches up.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/activity"
)

// Frame types.
const (
	frameHello byte = 1 // agent → collector: protocol version + host name
	frameAck   byte = 2 // collector → agent: highest applied item seq
	frameBatch byte = 3 // agent → collector: contiguous run of items
	frameClose byte = 4 // either direction: clean end of stream / its ack
	frameError byte = 5 // collector → agent: terminal error message
)

// Item tags inside a batch frame.
const (
	itemRecord    byte = 0
	itemHeartbeat byte = 1
)

// protocolVersion is the HELLO version byte; the collector rejects
// mismatches so both ends fail loudly instead of misparsing frames.
const protocolVersion = 1

// maxFrame bounds one frame's payload — large enough for any sane batch,
// small enough that a garbage length prefix cannot OOM the reader.
const maxFrame = 8 << 20

// writeFrame emits one frame: 4-byte big-endian payload length, the type
// byte, then the payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame payload %d exceeds limit %d", len(payload), maxFrame)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, reusing buf when it is large enough.
func readFrame(r io.Reader, buf []byte) (typ byte, payload, nextBuf []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, buf, fmt.Errorf("transport: frame length %d exceeds limit %d", n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, err
	}
	return hdr[4], payload, buf, nil
}

// item is one sequenced unit of an agent's stream: a record, or a
// heartbeat asserting "nothing older than ts will follow". Heartbeats
// ride the same sequence space as records — they order against them, and
// an applied heartbeat raises the session's per-host floor, so replaying
// a record past an already-applied later heartbeat would be rejected as a
// regression. Sequencing both keeps resume replays exact.
type item struct {
	seq uint64
	rec *activity.Activity // nil for a heartbeat
	hb  time.Duration
}

// helloPayload encodes a HELLO frame body.
func helloPayload(host string) []byte {
	buf := []byte{protocolVersion}
	buf = binary.AppendUvarint(buf, uint64(len(host)))
	return append(buf, host...)
}

// parseHello decodes a HELLO frame body.
func parseHello(p []byte) (host string, err error) {
	if len(p) < 1 {
		return "", fmt.Errorf("transport: empty hello")
	}
	if p[0] != protocolVersion {
		return "", fmt.Errorf("transport: protocol version %d, want %d", p[0], protocolVersion)
	}
	n, used := binary.Uvarint(p[1:])
	if used <= 0 || int(n) != len(p)-1-used {
		return "", fmt.Errorf("transport: malformed hello")
	}
	return string(p[1+used:]), nil
}

// ackPayload encodes an ACK frame body.
func ackPayload(buf []byte, seq uint64) []byte {
	return binary.AppendUvarint(buf[:0], seq)
}

// parseAck decodes an ACK frame body.
func parseAck(p []byte) (uint64, error) {
	seq, used := binary.Uvarint(p)
	if used <= 0 || used != len(p) {
		return 0, fmt.Errorf("transport: malformed ack")
	}
	return seq, nil
}

// batchPayload encodes a BATCH frame body: uvarint first sequence,
// uvarint item count, then tagged items. Item sequences are contiguous
// from the first — resends stay byte-stable and the collector can skip
// already-applied prefixes without per-item sequence overhead.
func batchPayload(buf []byte, items []item) []byte {
	buf = binary.AppendUvarint(buf[:0], items[0].seq)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		if it.rec != nil {
			buf = append(buf, itemRecord)
			buf = activity.AppendBinary(buf, it.rec)
		} else {
			buf = append(buf, itemHeartbeat)
			buf = binary.AppendVarint(buf, int64(it.hb))
		}
	}
	return buf
}

// parseBatch decodes a BATCH frame body, invoking apply for each item in
// sequence order with the count of items left, itself included. apply
// errors abort the parse.
func parseBatch(p []byte, apply func(it item, left uint64) error) error {
	first, used := binary.Uvarint(p)
	if used <= 0 {
		return fmt.Errorf("transport: malformed batch header")
	}
	p = p[used:]
	count, used := binary.Uvarint(p)
	if used <= 0 {
		return fmt.Errorf("transport: malformed batch count")
	}
	p = p[used:]
	for i := uint64(0); i < count; i++ {
		if len(p) == 0 {
			return fmt.Errorf("transport: batch truncated at item %d/%d", i, count)
		}
		tag := p[0]
		p = p[1:]
		it := item{seq: first + i}
		switch tag {
		case itemRecord:
			// Records decode into pooled storage (interned identity strings,
			// bound keys, no per-record allocation on the warm path). The
			// apply callback takes ownership: whoever ends up not forwarding
			// a record returns it via activity.ReleaseRecord.
			rec := activity.NewRecord()
			n, err := activity.DecodeBinaryInto(rec, p)
			if err != nil {
				activity.ReleaseRecord(rec)
				return fmt.Errorf("transport: batch item %d: %w", i, err)
			}
			it.rec = rec
			p = p[n:]
		case itemHeartbeat:
			ts, n := binary.Varint(p)
			if n <= 0 {
				return fmt.Errorf("transport: batch item %d: malformed heartbeat", i)
			}
			it.hb = time.Duration(ts)
			p = p[n:]
		default:
			return fmt.Errorf("transport: batch item %d: unknown tag %d", i, tag)
		}
		if err := apply(it, count-i); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after batch", len(p))
	}
	return nil
}
