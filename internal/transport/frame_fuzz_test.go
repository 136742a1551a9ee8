package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/activity"
)

// seedItems is a short real stream: records of two shapes and heartbeats,
// sequenced from first.
func seedItems(first uint64) []item {
	rec := func(id int64, typ activity.Type, port int) *activity.Activity {
		return &activity.Activity{
			ID: id, Type: typ, Timestamp: time.Duration(id) * time.Millisecond,
			Ctx:  activity.Context{Host: "web", Program: "httpd", PID: 2301, TID: 2302},
			Chan: activity.Channel{Src: activity.EP("10.0.0.1", port), Dst: activity.EP("10.0.0.9", 80)},
			Size: 512, ReqID: -1, MsgID: -1,
		}
	}
	items := []item{
		{rec: rec(1, activity.Receive, 33210)},
		{hb: 2 * time.Millisecond},
		{rec: rec(3, activity.Send, 80)},
		{rec: rec(4, activity.Begin, 0)},
		{hb: -time.Second},
	}
	for i := range items {
		items[i].seq = first + uint64(i)
	}
	return items
}

func seedFrames() [][]byte {
	var b bytes.Buffer
	writeFrame(&b, frameHello, helloPayload("web"))
	writeFrame(&b, frameAck, ackPayload(nil, 41))
	writeFrame(&b, frameBatch, batchPayload(nil, seedItems(42)))
	writeFrame(&b, frameBatch, batchPayload(nil, seedItems(1)[1:2]))
	writeFrame(&b, frameClose, nil)
	writeFrame(&b, frameError, []byte("unknown host"))
	stream := b.Bytes()
	seeds := [][]byte{stream, stream[:len(stream)/2], {0, 0, 0, 0, frameClose}}
	huge := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	return append(seeds, append(huge, frameBatch))
}

// FuzzReadFrame: reading frames off a byte stream never panics, never
// consumes more than a header plus maxFrame bytes per frame, never
// allocates for a length over maxFrame, and every frame it returns
// re-encodes through writeFrame to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, s := range seedFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		var out bytes.Buffer
		for {
			before := r.Len()
			typ, payload, next, err := readFrame(r, buf)
			read := before - r.Len()
			if read > 5+maxFrame {
				t.Fatalf("read %d bytes for one frame, limit %d", read, 5+maxFrame)
			}
			if err != nil {
				if before >= 5 {
					start := len(data) - before
					if n := binary.BigEndian.Uint32(data[start:]); n > maxFrame && (read != 5 || cap(next) != cap(buf)) {
						t.Fatalf("oversized length %d: read %d bytes, buffer %d → %d", n, read, cap(buf), cap(next))
					}
				}
				break
			}
			if read != 5+len(payload) {
				t.Fatalf("frame of %d payload bytes consumed %d", len(payload), read)
			}
			if err := writeFrame(&out, typ, payload); err != nil {
				t.Fatal(err)
			}
			buf = next
		}
		if consumed := out.Len(); !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("re-encoded frames differ from the %d bytes read", consumed)
		}
	})
}

// parsed collects what parseBatch delivers, recycling nothing: records
// are compared after the parse. It fails t when an item's count of items
// left disagrees with its position.
func parsed(t *testing.T, p []byte, count uint64) ([]item, error) {
	var items []item
	err := parseBatch(p, func(it item, left uint64) error {
		if want := count - uint64(len(items)); left != want {
			t.Fatalf("item %d: %d items left, header count says %d", len(items), left, want)
		}
		items = append(items, it)
		return nil
	})
	return items, err
}

func sameItems(a, b []item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].seq != b[i].seq || a[i].hb != b[i].hb || (a[i].rec == nil) != (b[i].rec == nil) {
			return false
		}
		if a[i].rec != nil && *a[i].rec != *b[i].rec {
			return false
		}
	}
	return true
}

// FuzzParseBatch: a BATCH payload never panics the parser, which
// delivers at most the header's item count, in contiguous sequence from
// its first, each with the right count of items left. A payload that parses cleanly re-encodes through
// batchPayload byte-identical — unless it spelled a varint with more
// bytes than needed, which encoding/binary accepts: then the re-encoding
// is shorter and parses to the same items.
func FuzzParseBatch(f *testing.F) {
	f.Add(batchPayload(nil, seedItems(1)))
	f.Add(batchPayload(nil, seedItems(1<<40)))
	f.Add(batchPayload(nil, seedItems(7)[1:2]))
	f.Add(batchPayload(nil, seedItems(7)[:1]))
	// The first sequence, 1, spelled in two bytes instead of one.
	f.Add(append([]byte{0x81, 0x00}, batchPayload(nil, seedItems(1))[1:]...))
	f.Add([]byte{1, 0})
	f.Add([]byte{1, 200})
	f.Fuzz(func(t *testing.T, p []byte) {
		first, n1 := binary.Uvarint(p)
		count, n2 := uint64(0), 0
		if n1 > 0 {
			count, n2 = binary.Uvarint(p[n1:])
		}
		items, err := parsed(t, p, count)
		if (n1 <= 0 || n2 <= 0) && (err == nil || len(items) > 0) {
			t.Fatalf("bad header, yet parse delivered %d items (err %v)", len(items), err)
		}
		if uint64(len(items)) > count {
			t.Fatalf("delivered %d items, header count %d", len(items), count)
		}
		for i, it := range items {
			if it.seq != first+uint64(i) {
				t.Fatalf("item %d has seq %d, first is %d", i, it.seq, first)
			}
		}
		if err != nil || len(items) == 0 {
			return
		}
		if uint64(len(items)) != count {
			t.Fatalf("clean parse delivered %d of %d items", len(items), count)
		}
		q := batchPayload(nil, items)
		if bytes.Equal(q, p) {
			return
		}
		if len(q) >= len(p) {
			t.Fatalf("re-encoding differs and is not shorter:\n in %x\nout %x", p, q)
		}
		back, err := parsed(t, q, count)
		if err != nil || !sameItems(back, items) {
			t.Fatalf("canonical re-encoding parses differently (err %v):\n in %x\nout %x", err, p, q)
		}
	})
}
