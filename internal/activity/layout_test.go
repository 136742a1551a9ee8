package activity_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/activity"
	"repro/internal/rubis"
)

// layoutTraceSum is the SHA-256 of layoutTrace's records in both wire
// encodings (see encodeAll). It pins the bytes, not just the round trip:
// a change to the record layout must leave both codecs' output as it was.
const layoutTraceSum = "550735b2b4ff1de0fc8b969d4e6098e9619a7e532d9595af9a89d0667bf195bb"

// layoutTrace is a small seeded RUBiS run with background noise, so the
// trace holds untraced senders and ephemeral ports as well as the tiers.
func layoutTrace(t *testing.T) []*activity.Activity {
	t.Helper()
	cfg := rubis.DefaultConfig(20)
	cfg.Scale = 0.005
	cfg.Noise = true
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 1000 {
		t.Fatalf("trace has %d records, want a few thousand", len(res.Trace))
	}
	return res.Trace
}

// encodeAll hashes every record's binary encoding followed by its text
// line (ground truth included).
func encodeAll(trace []*activity.Activity) string {
	h := sha256.New()
	var buf []byte
	for _, a := range trace {
		buf = activity.AppendBinary(buf[:0], a)
		h.Write(buf)
		h.Write([]byte(activity.FormatRecord(a, true)))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestActivityLayout pins the record the session copies per push: 120
// bytes, with the channel a 16-byte pointer-free key, and both codecs
// byte-identical and lossless over a RUBiS trace.
func TestActivityLayout(t *testing.T) {
	if got := unsafe.Sizeof(activity.Activity{}); got != 120 {
		t.Errorf("sizeof(Activity) = %d, want 120", got)
	}
	if got := unsafe.Sizeof(activity.Channel{}); got != 16 {
		t.Errorf("sizeof(Channel) = %d, want 16", got)
	}
	if p := pointerField(reflect.TypeOf(activity.Channel{}), "Channel"); p != "" {
		t.Errorf("Channel holds a pointer at %s", p)
	}

	trace := layoutTrace(t)
	var buf []byte
	var got activity.Activity
	for _, a := range trace {
		activity.Bind(a)
		buf = activity.AppendBinary(buf[:0], a)
		n, err := activity.DecodeBinaryInto(&got, buf)
		if err != nil || n != len(buf) {
			t.Fatalf("binary decode of %v: n=%d of %d, err %v", a, n, len(buf), err)
		}
		if got != *a {
			t.Fatalf("binary round trip:\n got %+v\nwant %+v", got, *a)
		}
		line := activity.FormatRecord(a, true)
		p, err := activity.ParseRecord(line)
		if err != nil {
			t.Fatalf("ParseRecord(%q): %v", line, err)
		}
		// The text format carries µs timestamps and no record ID.
		want := *a
		want.ID, want.Timestamp = 0, p.Timestamp
		if *p != want || p.Timestamp != a.Timestamp.Truncate(time.Microsecond) {
			t.Fatalf("text round trip of %q:\n got %+v\nwant %+v", line, *p, want)
		}
	}
	if sum := encodeAll(trace); sum != layoutTraceSum {
		t.Errorf("encodings of the %d-record trace hash to %s, want %s", len(trace), sum, layoutTraceSum)
	}
}

// pointerField returns the path of the first field of t that holds a
// pointer (string, slice, map, pointer, interface, func or chan), or "".
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return path + " (" + t.Kind().String() + ")"
	}
}
