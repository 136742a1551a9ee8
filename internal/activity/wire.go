package activity

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The TCP_TRACE wire format, §3.1 of the paper:
//
//	timestamp hostname program_name ProcessID ThreadID SEND/RECEIVE \
//	    sender_ip:port-receiver_ip:port message_size
//
// timestamps are printed as seconds.microseconds of the logging node's local
// clock. Traces produced by the simulated testbed may append an optional
// ground-truth annotation "# req=R msg=M" which real kernels would not emit;
// the parser tolerates its absence.

// FormatTimestamp renders a node-local time as seconds.microseconds.
func FormatTimestamp(ts time.Duration) string {
	micros := ts.Microseconds()
	neg := ""
	if micros < 0 {
		neg = "-"
		micros = -micros
	}
	return fmt.Sprintf("%s%d.%06d", neg, micros/1e6, micros%1e6)
}

// ParseTimestamp parses seconds.microseconds into a duration.
func ParseTimestamp(s string) (time.Duration, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	sec, frac, ok := strings.Cut(s, ".")
	if !ok {
		frac = "0"
	} else if frac == "" {
		return 0, fmt.Errorf("timestamp %q: empty fraction", s)
	}
	// The fraction must be bare digits: ParseInt alone would accept a sign
	// ("1.-5" parsing as negative microseconds) and padding would mangle it.
	for i := 0; i < len(frac); i++ {
		if frac[i] < '0' || frac[i] > '9' {
			return 0, fmt.Errorf("timestamp %q: non-digit fraction byte %q", s, frac[i])
		}
	}
	secs, err := strconv.ParseInt(sec, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("timestamp %q: %w", s, err)
	}
	for len(frac) < 6 {
		frac += "0"
	}
	if len(frac) > 6 {
		frac = frac[:6]
	}
	micros, err := strconv.ParseInt(frac, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("timestamp %q: %w", s, err)
	}
	d := time.Duration(secs)*time.Second + time.Duration(micros)*time.Microsecond
	if neg {
		d = -d
	}
	return d, nil
}

// FormatRecord renders an activity as one TCP_TRACE log line. If withTruth
// is true the ground-truth annotation is appended.
func FormatRecord(a *Activity, withTruth bool) string {
	var b strings.Builder
	b.Grow(96)
	b.WriteString(FormatTimestamp(a.Timestamp))
	b.WriteByte(' ')
	b.WriteString(a.Ctx.Host)
	b.WriteByte(' ')
	b.WriteString(a.Ctx.Program)
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(int(a.Ctx.PID)))
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(int(a.Ctx.TID)))
	b.WriteByte(' ')
	b.WriteString(a.Type.String())
	b.WriteByte(' ')
	var ch [64]byte
	b.Write(a.Chan.AppendTo(ch[:0]))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(a.Size, 10))
	if withTruth {
		b.WriteString(" # req=")
		b.WriteString(strconv.FormatInt(a.ReqID, 10))
		b.WriteString(" msg=")
		b.WriteString(strconv.FormatInt(a.MsgID, 10))
	}
	return b.String()
}

// ParseRecord parses one TCP_TRACE log line. The original TCP_TRACE format
// only carries SEND/RECEIVE; BEGIN/END appear after classification, and
// round-tripped traces may contain them too, so all four types parse.
func ParseRecord(line string) (*Activity, error) {
	truth := ""
	if i := strings.IndexByte(line, '#'); i >= 0 {
		truth = strings.TrimSpace(line[i+1:])
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) != 8 {
		return nil, fmt.Errorf("record has %d fields, want 8: %q", len(fields), line)
	}
	ts, err := ParseTimestamp(fields[0])
	if err != nil {
		return nil, err
	}
	pid, err := strconv.ParseInt(fields[3], 10, 32)
	if err != nil {
		return nil, fmt.Errorf("pid %q: %w", fields[3], err)
	}
	tid, err := strconv.ParseInt(fields[4], 10, 32)
	if err != nil {
		return nil, fmt.Errorf("tid %q: %w", fields[4], err)
	}
	typ, err := ParseType(fields[5])
	if err != nil {
		return nil, err
	}
	ch, err := parseChannel(fields[6])
	if err != nil {
		return nil, err
	}
	size, err := strconv.ParseInt(fields[7], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("size %q: %w", fields[7], err)
	}
	a := &Activity{
		Type:      typ,
		Timestamp: ts,
		Ctx:       Context{Host: fields[1], Program: fields[2], PID: int32(pid), TID: int32(tid)},
		Chan:      ch,
		Size:      size,
		ReqID:     -1,
		MsgID:     -1,
	}
	if truth != "" {
		if err := parseTruth(truth, a); err != nil {
			return nil, err
		}
	}
	// Decode boundary: intern the context strings (canonical copies stop
	// the record from pinning the parsed line) and fill the dense key.
	Bind(a)
	return a, nil
}

func parseChannel(s string) (Channel, error) {
	src, dst, ok := strings.Cut(s, "-")
	if !ok {
		return Channel{}, fmt.Errorf("channel %q: missing '-'", s)
	}
	se, err := parseEndpoint(src)
	if err != nil {
		return Channel{}, err
	}
	de, err := parseEndpoint(dst)
	if err != nil {
		return Channel{}, err
	}
	return Channel{Src: se, Dst: de}, nil
}

func parseEndpoint(s string) (Endpoint, error) {
	// Split on the LAST colon: IPv6 addresses ("2001:db8::1") contain
	// colons themselves, so a first-colon split can never parse a v6
	// endpoint. FormatRecord writes ip:port, so the port is always the
	// text after the final colon.
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return Endpoint{}, fmt.Errorf("endpoint %q: missing ':'", s)
	}
	ip, portStr := s[:i], s[i+1:]
	if ip == "" {
		return Endpoint{}, fmt.Errorf("endpoint %q: empty address", s)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return Endpoint{}, fmt.Errorf("endpoint %q: %w", s, err)
	}
	if port < 0 || port > 65535 {
		return Endpoint{}, fmt.Errorf("endpoint %q: port %d out of range", s, port)
	}
	return EP(ip, port), nil
}

func parseTruth(s string, a *Activity) error {
	for _, kv := range strings.Fields(s) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("truth annotation %q: missing '='", kv)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("truth annotation %q: %w", kv, err)
		}
		switch k {
		case "req":
			a.ReqID = n
		case "msg":
			a.MsgID = n
		default:
			return fmt.Errorf("truth annotation: unknown key %q", k)
		}
	}
	return nil
}

// Writer emits TCP_TRACE log lines to an io.Writer.
type Writer struct {
	w         *bufio.Writer
	withTruth bool
	count     int64
}

// NewWriter returns a Writer. If withTruth is set, the testbed's
// ground-truth annotations are included so accuracy can be checked after a
// round trip through the wire format.
func NewWriter(w io.Writer, withTruth bool) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), withTruth: withTruth}
}

// Write emits one record. The record counts as written only once the
// whole line, trailing newline included, was accepted — a short write
// must not leave Count() claiming a record the sink never got.
func (w *Writer) Write(a *Activity) error {
	if _, err := w.w.WriteString(FormatRecord(a, w.withTruth)); err != nil {
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.count }

// Flush flushes the underlying buffer.
func (w *Writer) Flush() error { return w.w.Flush() }

// ReadAll parses every record from r, assigning sequential IDs.
func ReadAll(r io.Reader) ([]*Activity, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []*Activity
	var id int64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		a, err := ParseRecord(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		a.ID = id
		id++
		out = append(out, a)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
