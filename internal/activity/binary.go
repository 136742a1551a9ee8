package activity

import (
	"encoding/binary"
	"fmt"
	"time"
)

// The compact binary codec for TCP_TRACE records — the on-the-wire sibling
// of the text format in wire.go, used by internal/transport to frame
// batches of records between a per-host agent and the central collector.
//
// Layout (all integers varint/uvarint, strings uvarint-length-prefixed):
//
//	type      1 byte  (Begin/Send/End/Receive)
//	timestamp varint  nanoseconds (full Duration precision — the text
//	                  format truncates to µs; the binary one must not)
//	host, program     string
//	pid, tid          varint  (must fit in 32 bits)
//	src ip            string
//	src port          uvarint
//	dst ip            string
//	dst port          uvarint
//	size              varint
//	id                varint  (record ID: emission tie-breaks depend on it,
//	                  so byte-identical replay needs it on the wire)
//	req, msg          varint  (ground truth; -1 when absent)
//
// The codec is structural, not semantic: like ParseRecord it validates
// shape (type tag, string bounds, non-empty addresses, pid/tid and port
// range) and trusts content. Decode never reads past the given buffer and
// never panics on malformed input (FuzzBinaryDecode).

// maxBinaryString caps decoded string lengths — far above any real
// hostname/program/address, far below anything that could OOM a decoder
// fed garbage lengths.
const maxBinaryString = 1 << 12

// AppendBinary appends the binary encoding of a to buf and returns the
// extended buffer.
func AppendBinary(buf []byte, a *Activity) []byte {
	buf = append(buf, byte(a.Type))
	buf = binary.AppendVarint(buf, int64(a.Timestamp))
	buf = appendBinaryString(buf, a.Ctx.Host)
	buf = appendBinaryString(buf, a.Ctx.Program)
	buf = binary.AppendVarint(buf, int64(a.Ctx.PID))
	buf = binary.AppendVarint(buf, int64(a.Ctx.TID))
	buf = appendBinaryString(buf, Syms.Name(a.Chan.Src.IP))
	buf = binary.AppendUvarint(buf, uint64(uint16(a.Chan.Src.Port)))
	buf = appendBinaryString(buf, Syms.Name(a.Chan.Dst.IP))
	buf = binary.AppendUvarint(buf, uint64(uint16(a.Chan.Dst.Port)))
	buf = binary.AppendVarint(buf, a.Size)
	buf = binary.AppendVarint(buf, a.ID)
	buf = binary.AppendVarint(buf, a.ReqID)
	buf = binary.AppendVarint(buf, a.MsgID)
	return buf
}

// DecodeBinary decodes one record from the front of buf, returning the
// record and the number of bytes consumed. It errors (never panics) on
// truncated or malformed input.
func DecodeBinary(buf []byte) (*Activity, int, error) {
	a := &Activity{}
	n, err := DecodeBinaryInto(a, buf)
	if err != nil {
		return nil, 0, err
	}
	return a, n, nil
}

// DecodeBinaryInto decodes one record from the front of buf into *a
// (overwriting every field), returning the number of bytes consumed. It
// is the allocation-free decode boundary: identity strings resolve to
// their interned canonical copies and symbols (no per-record string
// allocation once the vocabulary is warm) and CtxK comes out bound, so a
// pooled record (NewRecord) can be reused across frames.
func DecodeBinaryInto(a *Activity, buf []byte) (int, error) {
	d := binDecoder{buf: buf}
	*a = Activity{}
	t := d.byte()
	if t < byte(Begin) || t > byte(Receive) {
		if d.err == nil {
			d.err = fmt.Errorf("activity: bad binary type tag %d", t)
		}
		return 0, d.err
	}
	a.Type = Type(t)
	a.Timestamp = time.Duration(d.varint())
	a.Ctx.Host, a.CtxK.Host = d.symString()
	a.Ctx.Program, a.CtxK.Prog = d.symString()
	a.Ctx.PID = d.int32("pid")
	a.Ctx.TID = d.int32("tid")
	a.Chan.Src.IP = d.ip("src ip")
	a.Chan.Src.Port = d.port()
	a.Chan.Dst.IP = d.ip("dst ip")
	a.Chan.Dst.Port = d.port()
	a.Size = d.varint()
	a.ID = d.varint()
	a.ReqID = d.varint()
	a.MsgID = d.varint()
	if d.err != nil {
		*a = Activity{}
		return 0, d.err
	}
	a.CtxK.PID, a.CtxK.TID = a.Ctx.PID, a.Ctx.TID
	return d.off, nil
}

func appendBinaryString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// binDecoder is a bounds-checked cursor over one encoded record. The
// first failure sticks; every later read returns zero values.
type binDecoder struct {
	buf []byte
	off int
	err error
}

func (d *binDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("activity: binary record truncated or malformed at %s (offset %d)", what, d.off)
	}
}

func (d *binDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("type")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *binDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *binDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// int32 reads a varint that must fit in 32 bits: a wider pid or tid would
// alias a different thread once narrowed into CtxK.
func (d *binDecoder) int32(what string) int32 {
	v := d.varint()
	if d.err == nil && int64(int32(v)) != v {
		d.fail(what)
		return 0
	}
	return int32(v)
}

func (d *binDecoder) port() int32 {
	v := d.uvarint()
	if d.err == nil && v > 65535 {
		d.fail("port")
		return 0
	}
	return int32(v)
}

// ip reads an endpoint address, rejecting an empty one as ParseRecord does.
func (d *binDecoder) ip(what string) Sym {
	s, sym := d.symString()
	if s == "" {
		d.fail(what) // a no-op when symString already failed
	}
	return sym
}

// symString reads a string and interns it in one step: on the hit path
// the raw bytes index the interner's map directly, so no copy of the
// string is allocated.
func (d *binDecoder) symString() (string, Sym) {
	n := d.uvarint()
	if d.err != nil {
		return "", 0
	}
	if n > maxBinaryString || int(n) > len(d.buf)-d.off {
		d.fail("string")
		return "", 0
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	sym, s := Syms.internBytes(b)
	return s, sym
}
