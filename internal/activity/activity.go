// Package activity defines the interaction-activity model of §2–3 of the
// paper: the four activity types (BEGIN, END, SEND, RECEIVE), the context
// identifier (hostname, program, pid, tid), the message identifier
// (sender ip:port, receiver ip:port, size), and the TCP_TRACE wire format
// produced by the kernel instrumentation.
package activity

import (
	"fmt"
	"strconv"
	"time"
)

// Type is the activity type. The numeric order encodes the candidate
// priority of the ranker's Rule 2: BEGIN < SEND < END < RECEIVE < MAX, where
// a *lower* priority value is picked *earlier*.
type Type uint8

// Activity types in Rule 2 priority order.
const (
	Begin Type = iota + 1
	Send
	End
	Receive
	// MaxType is the sentinel above every real type ("MAX" in the paper's
	// priority chain); used when scanning for the minimum-priority head.
	MaxType
)

// Priority returns the Rule 2 ordering value; lower is chosen first.
func (t Type) Priority() int { return int(t) }

// String implements fmt.Stringer using the paper's spelling.
func (t Type) String() string {
	switch t {
	case Begin:
		return "BEGIN"
	case Send:
		return "SEND"
	case End:
		return "END"
	case Receive:
		return "RECEIVE"
	case MaxType:
		return "MAX"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType converts the wire spelling back into a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "BEGIN":
		return Begin, nil
	case "SEND":
		return Send, nil
	case "END":
		return End, nil
	case "RECEIVE":
		return Receive, nil
	default:
		return 0, fmt.Errorf("unknown activity type %q", s)
	}
}

// Context is the execution-entity identifier tuple (hostname, program
// name, process ID, thread ID); both decoders reject PIDs and TIDs wider
// than 32 bits, which would alias another thread in CtxKey.
type Context struct {
	Host    string
	Program string
	PID     int32
	TID     int32
}

// String implements fmt.Stringer.
func (c Context) String() string {
	var buf [64]byte
	return string(c.AppendTo(buf[:0]))
}

// AppendTo appends c's String form, host/program[pid:tid], to b.
func (c Context) AppendTo(b []byte) []byte {
	b = append(b, c.Host...)
	b = append(b, '/')
	b = append(b, c.Program...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(c.PID), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(c.TID), 10)
	return append(b, ']')
}

// Endpoint is one side of a TCP channel; Syms.Name(IP) is its address.
type Endpoint struct {
	IP   Sym
	Port int32
}

// EP returns the endpoint ip:port, interning ip in Syms.
func EP(ip string, port int) Endpoint {
	return Endpoint{IP: Syms.Intern(ip), Port: int32(port)}
}

// String implements fmt.Stringer.
func (e Endpoint) String() string {
	var buf [64]byte
	return string(e.AppendTo(buf[:0]))
}

// AppendTo appends e's String form, ip:port, to b.
func (e Endpoint) AppendTo(b []byte) []byte {
	b = append(b, Syms.Name(e.IP)...)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(e.Port), 10)
}

// Channel is the directed end-to-end communication channel part of the
// message identifier: (sender ip:port, receiver ip:port). It is 16
// pointer-free bytes and is used directly as the key of the engine's
// channel ordinals (its mmap slot) and the flow partition; the size component
// of the paper's message-identifier tuple lives on the Activity because it
// varies per segment. Order channels by Syms.Name, never by symbol value.
type Channel struct {
	Src Endpoint
	Dst Endpoint
}

// Reverse returns the channel for traffic flowing the opposite way.
func (ch Channel) Reverse() Channel { return Channel{Src: ch.Dst, Dst: ch.Src} }

// String implements fmt.Stringer using the wire spelling.
func (ch Channel) String() string {
	var buf [64]byte
	return string(ch.AppendTo(buf[:0]))
}

// AppendTo appends ch's String form, src-dst, to b.
func (ch Channel) AppendTo(b []byte) []byte {
	b = ch.Src.AppendTo(b)
	b = append(b, '-')
	return ch.Dst.AppendTo(b)
}

// Activity is one logged kernel interaction activity. Timestamp is the
// *node-local* time of the logging node; the correlator never assumes any
// cross-node clock relationship. The session copies every record it
// buffers: 120 bytes, pinned by TestActivityLayout.
type Activity struct {
	// ID uniquely identifies the record within one trace (assignment order
	// = log order). It exists for bookkeeping and ground-truth checking; the
	// correlation algorithm itself never inspects it.
	ID int64

	Type      Type
	Timestamp time.Duration
	Ctx       Context
	Chan      Channel
	Size      int64

	// CtxK is the dense key form of Ctx (see symbols.go), filled by Bind
	// at the decode boundary and used as the map/union-find key on every
	// hot path. It is derived, carries no information of its own, and
	// stays zero on hand-built records until a consumer binds it lazily.
	CtxK CtxKey

	// Ground truth, available only when the trace was produced by the
	// simulated testbed (the real system would not have these). ReqID is the
	// request that caused the activity (-1 when unknown/noise), MsgID the
	// logical message a SEND/RECEIVE segment belongs to (-1 when n/a).
	// The correlator MUST NOT read these; they exist so the accuracy
	// experiments can compare CAGs against truth, mirroring the paper's
	// modified-RUBiS global request ID.
	ReqID int64
	MsgID int64
}

// String implements fmt.Stringer in a compact debug form.
func (a *Activity) String() string {
	return fmt.Sprintf("#%d %s t=%v %s %s %dB", a.ID, a.Type, a.Timestamp, a.Ctx, a.Chan, a.Size)
}

// CloneUntagged returns a copy with the ground-truth fields erased; used by
// tests to prove the correlator does not depend on them.
func (a *Activity) CloneUntagged() *Activity {
	cp := *a
	cp.ReqID = -1
	cp.MsgID = -1
	return &cp
}
