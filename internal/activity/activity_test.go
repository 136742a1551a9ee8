package activity

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sample() *Activity {
	return &Activity{
		ID:        7,
		Type:      Send,
		Timestamp: 12*time.Second + 345678*time.Microsecond,
		Ctx:       Context{Host: "node1", Program: "httpd", PID: 2301, TID: 2301},
		Chan: Channel{
			Src: EP("10.0.0.1", 34001),
			Dst: EP("10.0.0.2", 8009),
		},
		Size:  512,
		ReqID: 42,
		MsgID: 9,
	}
}

func TestPriorityOrder(t *testing.T) {
	// Rule 2: BEGIN < SEND < END < RECEIVE < MAX.
	order := []Type{Begin, Send, End, Receive, MaxType}
	for i := 1; i < len(order); i++ {
		if order[i-1].Priority() >= order[i].Priority() {
			t.Fatalf("priority(%v) >= priority(%v)", order[i-1], order[i])
		}
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{Begin, Send, End, Receive} {
		got, err := ParseType(typ.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != typ {
			t.Fatalf("round trip %v -> %v", typ, got)
		}
	}
	if _, err := ParseType("NOPE"); err == nil {
		t.Fatal("ParseType should reject unknown spellings")
	}
}

func TestFormatTimestamp(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{0, "0.000000"},
		{time.Microsecond, "0.000001"},
		{12*time.Second + 345678*time.Microsecond, "12.345678"},
		{-1500 * time.Millisecond, "-1.500000"},
	}
	for _, c := range cases {
		if got := FormatTimestamp(c.in); got != c.want {
			t.Errorf("FormatTimestamp(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseTimestamp(t *testing.T) {
	for _, s := range []string{"0.000000", "12.345678", "-1.500000", "3", "3.5"} {
		if _, err := ParseTimestamp(s); err != nil {
			t.Errorf("ParseTimestamp(%q) error: %v", s, err)
		}
	}
	got, err := ParseTimestamp("3.5")
	if err != nil || got != 3500*time.Millisecond {
		t.Fatalf("ParseTimestamp(3.5) = %v, %v", got, err)
	}
	if _, err := ParseTimestamp("abc"); err == nil {
		t.Fatal("ParseTimestamp should reject garbage")
	}
}

func TestRecordRoundTripWithTruth(t *testing.T) {
	a := sample()
	line := FormatRecord(a, true)
	got, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != a.Type || got.Timestamp != a.Timestamp || got.Ctx != a.Ctx ||
		got.Chan != a.Chan || got.Size != a.Size || got.ReqID != a.ReqID || got.MsgID != a.MsgID {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", a, got)
	}
}

func TestRecordRoundTripWithoutTruth(t *testing.T) {
	a := sample()
	line := FormatRecord(a, false)
	if strings.Contains(line, "#") {
		t.Fatalf("truth annotation leaked: %q", line)
	}
	got, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReqID != -1 || got.MsgID != -1 {
		t.Fatalf("truth fields should default to -1, got req=%d msg=%d", got.ReqID, got.MsgID)
	}
}

func TestParseRecordPaperExample(t *testing.T) {
	// The paper's original format example shape.
	line := "12.345678 node1 httpd 2301 2301 SEND 10.0.0.1:34001-10.0.0.2:8009 512"
	a, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ctx.Program != "httpd" || a.Chan.Dst.Port != 8009 || a.Size != 512 {
		t.Fatalf("parsed %v", a)
	}
}

func TestParseRecordErrors(t *testing.T) {
	bad := []string{
		"",
		"12.0 node1 httpd 1 1 SEND 10.0.0.1:1-10.0.0.2:2",             // missing size
		"12.0 node1 httpd x 1 SEND 10.0.0.1:1-10.0.0.2:2 10",          // bad pid
		"12.0 node1 httpd 4294967297 1 SEND 10.0.0.1:1-10.0.0.2:2 10", // pid past 32 bits
		"12.0 node1 httpd 1 2147483648 SEND 10.0.0.1:1-10.0.0.2:2 10", // tid past 32 bits
		"12.0 node1 httpd 1 1 NOPE 10.0.0.1:1-10.0.0.2:2 10",          // bad type
		"12.0 node1 httpd 1 1 SEND 10.0.0.1:1_10.0.0.2:2 10",          // bad channel
		"12.0 node1 httpd 1 1 SEND 10.0.0.1:1-10.0.0.2:2 10 extra",    // extra field
	}
	for _, line := range bad {
		if _, err := ParseRecord(line); err == nil {
			t.Errorf("ParseRecord(%q) should fail", line)
		}
	}
}

func TestReadAllAssignsIDsAndSkipsBlanks(t *testing.T) {
	log := strings.Join([]string{
		"0.000001 n1 httpd 1 1 RECEIVE 10.0.0.9:5000-10.0.0.1:80 100",
		"",
		"// comment line",
		"0.000002 n1 httpd 1 1 SEND 10.0.0.1:34001-10.0.0.2:8009 200",
	}, "\n")
	as, err := ReadAll(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 {
		t.Fatalf("got %d records, want 2", len(as))
	}
	if as[0].ID != 0 || as[1].ID != 1 {
		t.Fatalf("IDs = %d,%d, want 0,1", as[0].ID, as[1].ID)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb, true)
	a := sample()
	if err := w.Write(a); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 1 {
		t.Fatalf("Count = %d", w.Count())
	}
	back, err := ReadAll(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Chan != a.Chan || back[0].ReqID != a.ReqID {
		t.Fatalf("round trip via writer failed: %v", back)
	}
}

func TestChannelReverse(t *testing.T) {
	ch := sample().Chan
	r := ch.Reverse()
	if r.Src != ch.Dst || r.Dst != ch.Src {
		t.Fatalf("Reverse() = %v", r)
	}
	if r.Reverse() != ch {
		t.Fatal("double reverse should be identity")
	}
}

func TestClassifier(t *testing.T) {
	c := NewClassifier(80)
	recv := &Activity{Type: Receive, Chan: Channel{
		Src: EP("10.0.0.9", 5123),
		Dst: EP("10.0.0.1", 80),
	}}
	if got := c.Classify(recv); got != Begin {
		t.Fatalf("RECEIVE to :80 = %v, want BEGIN", got)
	}
	send := &Activity{Type: Send, Chan: recv.Chan.Reverse()}
	if got := c.Classify(send); got != End {
		t.Fatalf("SEND from :80 = %v, want END", got)
	}
	inner := &Activity{Type: Send, Chan: Channel{
		Src: EP("10.0.0.1", 34001),
		Dst: EP("10.0.0.2", 8009),
	}}
	if got := c.Classify(inner); got != Send {
		t.Fatalf("inner SEND = %v, want SEND", got)
	}
	innerRecv := &Activity{Type: Receive, Chan: inner.Chan}
	if got := c.Classify(innerRecv); got != Receive {
		t.Fatalf("inner RECEIVE = %v, want RECEIVE", got)
	}
}

func TestClassifierApply(t *testing.T) {
	c := NewClassifier(80)
	as := []*Activity{
		{Type: Receive, Chan: Channel{Src: EP("10.0.0.9", 5000), Dst: EP("10.0.0.1", 80)}},
		{Type: Send, Chan: Channel{Src: EP("10.0.0.1", 80), Dst: EP("10.0.0.9", 5000)}},
	}
	for _, a := range as {
		a.Type = c.Classify(a)
	}
	if as[0].Type != Begin || as[1].Type != End {
		t.Fatalf("Apply results: %v %v", as[0].Type, as[1].Type)
	}
}

func TestCloneUntagged(t *testing.T) {
	a := sample()
	cp := a.CloneUntagged()
	if cp.ReqID != -1 || cp.MsgID != -1 {
		t.Fatal("clone should strip ground truth")
	}
	if a.ReqID != 42 {
		t.Fatal("original must not be mutated")
	}
	if cp.Chan != a.Chan || cp.Ctx != a.Ctx {
		t.Fatal("clone should preserve identifiers")
	}
}

// Property: timestamp format/parse round-trips for all microsecond-precision
// durations.
func TestPropertyTimestampRoundTrip(t *testing.T) {
	f := func(micros int64) bool {
		micros %= 1e12
		d := time.Duration(micros) * time.Microsecond
		back, err := ParseTimestamp(FormatTimestamp(d))
		return err == nil && back == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: FormatRecord/ParseRecord round-trips arbitrary activities with
// sane field values.
func TestPropertyRecordRoundTrip(t *testing.T) {
	f := func(tsMicros uint32, pid, tid uint16, sport, dport uint16, size uint32, req, msg int16) bool {
		a := &Activity{
			Type:      Receive,
			Timestamp: time.Duration(tsMicros) * time.Microsecond,
			Ctx:       Context{Host: "h", Program: "p", PID: int32(pid), TID: int32(tid)},
			Chan: Channel{
				Src: EP("10.0.0.1", int(sport)),
				Dst: EP("10.0.0.2", int(dport)),
			},
			Size:  int64(size),
			ReqID: int64(req),
			MsgID: int64(msg),
		}
		back, err := ParseRecord(FormatRecord(a, true))
		if err != nil {
			return false
		}
		return back.Timestamp == a.Timestamp && back.Ctx == a.Ctx && back.Chan == a.Chan &&
			back.Size == a.Size && back.ReqID == a.ReqID && back.MsgID == a.MsgID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
