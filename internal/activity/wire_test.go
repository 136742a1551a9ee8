package activity

import (
	"bufio"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestParseEndpoint: the endpoint parser must split ip from port on the
// LAST colon (IPv6 addresses contain colons) and reject malformed input.
func TestParseEndpoint(t *testing.T) {
	cases := []struct {
		in   string
		want Endpoint
		ok   bool
	}{
		{"10.0.0.1:80", EP("10.0.0.1", 80), true},
		{"10.0.0.1:65535", EP("10.0.0.1", 65535), true},
		{"2001:db8::1:8080", EP("2001:db8::1", 8080), true},
		{"::1:3306", EP("::1", 3306), true},
		{"fe80::aa:bb:cc:80", EP("fe80::aa:bb:cc", 80), true},
		{"nocolon", Endpoint{}, false},
		{":80", Endpoint{}, false},       // empty address
		{"10.0.0.1:", Endpoint{}, false}, // empty port
		{"10.0.0.1:http", Endpoint{}, false},
		{"10.0.0.1:-1", Endpoint{}, false},
		{"10.0.0.1:65536", Endpoint{}, false},
		// A bare v6 address is inherently ambiguous with address:port (the
		// final group is a valid port number); the parser takes the split.
		{"2001:db8::1", EP("2001:db8:", 1), true},
	}
	for _, c := range cases {
		got, err := parseEndpoint(c.in)
		if c.ok {
			if err != nil {
				t.Errorf("parseEndpoint(%q) error: %v", c.in, err)
				continue
			}
			if got != c.want {
				t.Errorf("parseEndpoint(%q) = %v, want %v", c.in, got, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("parseEndpoint(%q) = %v, want error", c.in, got)
		}
	}
}

// TestRecordRoundTripIPv6: a full record with IPv6 endpoints must survive
// FormatRecord -> ParseRecord unchanged — the regression that motivated
// the last-colon split.
func TestRecordRoundTripIPv6(t *testing.T) {
	a := &Activity{
		Type:      Send,
		Timestamp: 12345 * time.Microsecond,
		Ctx:       Context{Host: "web1", Program: "httpd", PID: 10, TID: 11},
		Chan: Channel{
			Src: EP("2001:db8::1", 8080),
			Dst: EP("fe80::42", 80),
		},
		Size:  512,
		ReqID: -1, MsgID: -1,
	}
	line := FormatRecord(a, false)
	got, err := ParseRecord(line)
	if err != nil {
		t.Fatalf("ParseRecord(%q): %v", line, err)
	}
	if got.Chan != a.Chan {
		t.Fatalf("IPv6 channel mangled: %v -> %v (line %q)", a.Chan, got.Chan, line)
	}
}

// TestParseTimestampFraction: the fraction must be bare digits — a signed
// fraction like "1.-5" must error, not parse as negative microseconds.
func TestParseTimestampFraction(t *testing.T) {
	if d, err := ParseTimestamp("-0.000001"); err != nil || d != -time.Microsecond {
		t.Fatalf("ParseTimestamp(-0.000001) = %v, %v; want -1µs", d, err)
	}
	if d, err := ParseTimestamp("1.000005"); err != nil || d != time.Second+5*time.Microsecond {
		t.Fatalf("ParseTimestamp(1.000005) = %v, %v", d, err)
	}
	for _, s := range []string{"1.", "1.-5", "1.+5", "1.5x", "1.5.5", "1. 5"} {
		if d, err := ParseTimestamp(s); err == nil {
			t.Errorf("ParseTimestamp(%q) = %v, want error", s, d)
		}
	}
}

// failWriter errors on every write — the injected sink failure.
type failWriter struct{}

var errSink = errors.New("sink failed")

func (failWriter) Write(p []byte) (int, error) { return 0, errSink }

// TestWriterCountShortWrite: Count must report only fully-written records.
// The buffer is sized so the record body fits exactly and the trailing
// newline forces the flush that fails — the old code counted the record
// before that newline write could error.
func TestWriterCountShortWrite(t *testing.T) {
	a := sample()
	line := FormatRecord(a, false)

	w := &Writer{w: bufio.NewWriterSize(failWriter{}, len(line))}
	if err := w.Write(a); err == nil {
		t.Fatal("Write succeeded against a failing sink")
	} else if !errors.Is(err, errSink) {
		t.Fatalf("unexpected error: %v", err)
	}
	if n := w.Count(); n != 0 {
		t.Fatalf("Count() = %d after a failed write, want 0", n)
	}

	// The record-body failure path: a buffer too small for the line makes
	// WriteString itself flush and fail; count must stay untouched too.
	w2 := &Writer{w: bufio.NewWriterSize(failWriter{}, 4)}
	if err := w2.Write(a); !errors.Is(err, errSink) {
		t.Fatalf("unexpected error: %v", err)
	}
	if n := w2.Count(); n != 0 {
		t.Fatalf("Count() = %d after a failed write, want 0", n)
	}

	// And the success path still counts.
	var b strings.Builder
	w3 := NewWriter(&b, false)
	if err := w3.Write(a); err != nil {
		t.Fatal(err)
	}
	if err := w3.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := w3.Count(); n != 1 {
		t.Fatalf("Count() = %d, want 1", n)
	}
}
