package activity

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

func binSample() *Activity {
	return &Activity{
		ID:        42,
		Type:      Receive,
		Timestamp: 12*time.Second + 345678901*time.Nanosecond, // sub-µs: binary keeps it
		Ctx:       Context{Host: "web1", Program: "httpd", PID: 2301, TID: 2304},
		Chan: Channel{
			Src: EP("2001:db8::1", 33210),
			Dst: EP("10.0.0.1", 80),
		},
		Size:  512,
		ReqID: 7,
		MsgID: 13,
	}
}

// decodeBinary decodes one record from the front of buf into a fresh
// Activity.
func decodeBinary(buf []byte) (*Activity, int, error) {
	a := &Activity{}
	n, err := DecodeBinaryInto(a, buf)
	return a, n, err
}

// boundSample is binSample with CtxK filled — what DecodeBinaryInto
// emits, since the binary codec binds at the decode boundary.
func boundSample() *Activity {
	a := binSample()
	Bind(a)
	return a
}

func TestBinaryRoundTrip(t *testing.T) {
	a := boundSample()
	buf := AppendBinary(nil, a)
	got, n, err := decodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if *got != *a {
		t.Fatalf("round trip mutated record:\n in: %+v\nout: %+v", a, got)
	}
}

// TestBinaryStream: records concatenate and decode back in order — the
// shape a transport batch frame carries.
func TestBinaryStream(t *testing.T) {
	var recs []*Activity
	var buf []byte
	for i := 0; i < 10; i++ {
		a := boundSample()
		a.ID = int64(i)
		a.Timestamp += time.Duration(i) * time.Millisecond
		recs = append(recs, a)
		buf = AppendBinary(buf, a)
	}
	for i := 0; len(buf) > 0; i++ {
		got, n, err := decodeBinary(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if *got != *recs[i] {
			t.Fatalf("record %d mutated", i)
		}
		buf = buf[n:]
	}
}

// TestBinaryDecodeMalformed: truncations and corruptions error cleanly.
func TestBinaryDecodeMalformed(t *testing.T) {
	full := AppendBinary(nil, binSample())
	// Every strict prefix is truncated and must error (the encoding has
	// no trailing optional part).
	for i := 0; i < len(full); i++ {
		if _, _, err := decodeBinary(full[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	// Bad type tag.
	bad := bytes.Clone(full)
	bad[0] = 99
	if _, _, err := decodeBinary(bad); err == nil {
		t.Fatal("bad type tag accepted")
	}
	// String length running past the buffer.
	if _, _, err := decodeBinary([]byte{byte(Send), 0, 0xff, 0xff, 0x03}); err == nil {
		t.Fatal("oversized string length accepted")
	}
	if _, _, err := decodeBinary(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
	// An empty source or destination IP, which ParseRecord rejects too.
	if _, _, err := decodeBinary(rawBinary(1, 1, "10.0.0.1", "10.0.0.9")); err != nil {
		t.Fatalf("well-formed raw record rejected: %v", err)
	}
	for _, c := range []struct{ src, dst string }{{"", "10.0.0.9"}, {"10.0.0.1", ""}} {
		if a, _, err := decodeBinary(rawBinary(1, 1, c.src, c.dst)); err == nil {
			t.Errorf("src %q dst %q: empty IP decoded to channel %v", c.src, c.dst, a.Chan)
		}
		line := fmt.Sprintf("1.000000 web1 httpd 1 1 SEND %s:80-%s:5000 512", c.src, c.dst)
		if _, err := ParseRecord(line); err == nil {
			t.Errorf("text %q: empty IP parsed", line)
		}
	}
}

// FuzzBinaryRoundTrip: decode(encode(x)) == x for arbitrary field values
// with non-empty IPs; decode rejects a record with an empty IP, as
// ParseRecord does.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint8(2), int64(12345), "web1", "httpd", 10, 11, "10.0.0.1", uint16(80), "2001:db8::1", uint16(3306), int64(512), int64(1), int64(-1), int64(-1))
	f.Add(uint8(4), int64(-1), "", "", -1, 0, "", uint16(0), "::", uint16(65535), int64(0), int64(-9), int64(7), int64(13))
	f.Fuzz(func(t *testing.T, typ uint8, ts int64, host, prog string, pid, tid int,
		srcIP string, srcPort uint16, dstIP string, dstPort uint16, size, id, req, msg int64) {
		if typ < uint8(Begin) || typ > uint8(Receive) {
			return
		}
		if len(host) > maxBinaryString || len(prog) > maxBinaryString ||
			len(srcIP) > maxBinaryString || len(dstIP) > maxBinaryString {
			return
		}
		a := &Activity{
			ID: id, Type: Type(typ), Timestamp: time.Duration(ts),
			Ctx: Context{Host: host, Program: prog, PID: int32(pid), TID: int32(tid)},
			Chan: Channel{
				Src: EP(srcIP, int(srcPort)),
				Dst: EP(dstIP, int(dstPort)),
			},
			Size: size, ReqID: req, MsgID: msg,
		}
		buf := AppendBinary(nil, a)
		Bind(a) // decode emits bound records; bind the expectation too
		got, n, err := decodeBinary(buf)
		if srcIP == "" || dstIP == "" {
			if err == nil {
				t.Fatalf("record with an empty IP decoded: %+v", got)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if *got != *a {
			t.Fatalf("round trip mutated record:\n in: %+v\nout: %+v", a, got)
		}
	})
}

// FuzzBinaryDecode: arbitrary bytes never panic; whatever decodes must
// re-encode and re-decode to the same record (the codec's fixed point).
func FuzzBinaryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(AppendBinary(nil, binSample()))
	f.Add(rawBinary(1<<32+1, 1, "10.0.0.1", "10.0.0.9"))
	f.Add(rawBinary(1, -1<<31-1, "10.0.0.1", "10.0.0.9"))
	f.Add(rawBinary(1, 1, "", ""))
	f.Fuzz(func(t *testing.T, buf []byte) {
		a, n, err := decodeBinary(buf)
		if err != nil {
			return
		}
		if n <= 0 || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		back, _, err := decodeBinary(AppendBinary(nil, a))
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if *back != *a {
			t.Fatalf("accepted record not a fixed point:\n in: %+v\nout: %+v", a, back)
		}
	})
}

// rawBinary encodes a SEND record field by field, as AppendBinary lays it
// out, but with pid and tid of any width and any IP strings: the bytes a
// buggy or hostile agent could send.
func rawBinary(pid, tid int64, srcIP, dstIP string) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := []byte{byte(Send)}
	b = binary.AppendVarint(b, int64(time.Second))
	b = str(b, "web1")
	b = str(b, "httpd")
	b = binary.AppendVarint(b, pid)
	b = binary.AppendVarint(b, tid)
	b = str(b, srcIP)
	b = binary.AppendUvarint(b, 80)
	b = str(b, dstIP)
	b = binary.AppendUvarint(b, 5000)
	for _, v := range []int64{512, 1, -1, -1} { // size, id, req, msg
		b = binary.AppendVarint(b, v)
	}
	return b
}

// TestPIDTIDRange: both decoders accept exactly the 32-bit PIDs and TIDs.
// A wider value used to be truncated into CtxK, so PID 1 and PID 2^32+1
// on one host, program and TID became one engine context.
func TestPIDTIDRange(t *testing.T) {
	const line = "1.000000 web1 httpd %d %d SEND 10.0.0.1:80-10.0.0.9:5000 512"
	cases := []struct {
		pid, tid int64
		ok       bool
	}{
		{1, 1, true},
		{1<<31 - 1, -1 << 31, true},
		{1<<32 + 1, 1, false},
		{1 << 31, 1, false},
		{-1<<31 - 1, 1, false},
		{1, 1 << 31, false},
		{1, -1<<31 - 1, false},
		{1, 1<<32 + 7, false},
	}
	for _, c := range cases {
		a, _, err := decodeBinary(rawBinary(c.pid, c.tid, "10.0.0.1", "10.0.0.9"))
		if (err == nil) != c.ok {
			t.Errorf("binary pid=%d tid=%d: err %v, want ok=%v", c.pid, c.tid, err, c.ok)
		} else if c.ok && (int64(a.Ctx.PID) != c.pid || int64(a.Ctx.TID) != c.tid ||
			a.CtxK.PID != a.Ctx.PID || a.CtxK.TID != a.Ctx.TID) {
			t.Errorf("binary pid=%d tid=%d decoded as %+v / %+v", c.pid, c.tid, a.Ctx, a.CtxK)
		}
		text := fmt.Sprintf(line, c.pid, c.tid)
		p, err := ParseRecord(text)
		if (err == nil) != c.ok {
			t.Errorf("text %q: err %v, want ok=%v", text, err, c.ok)
		} else if c.ok && (int64(p.Ctx.PID) != c.pid || int64(p.Ctx.TID) != c.tid) {
			t.Errorf("text %q parsed as %+v", text, p.Ctx)
		}
	}
}
