package activity

import (
	"testing"
)

// FuzzParseRecord: the wire parser must never panic and must round-trip
// whatever it accepts.
func FuzzParseRecord(f *testing.F) {
	f.Add("12.345678 node1 httpd 2301 2301 SEND 10.0.0.1:80-10.0.0.9:3321 512")
	f.Add("0.000001 n p 1 2 RECEIVE 1.2.3.4:5-6.7.8.9:10 1 # req=3 msg=4")
	f.Add("")
	f.Add("garbage")
	f.Add("-1.5 h p 0 0 BEGIN a:1-b:2 0")
	f.Add("1.0 h p 4294967297 1 SEND a:1-b:2 1")
	f.Add("1.0 h p -2147483648 2147483647 SEND a:1-b:2 1")
	f.Fuzz(func(t *testing.T, line string) {
		a, err := ParseRecord(line)
		if err != nil {
			return
		}
		// Accepted records must re-format and re-parse to the same fields.
		back, err := ParseRecord(FormatRecord(a, true))
		if err != nil {
			t.Fatalf("accepted %q but round trip failed: %v", line, err)
		}
		if back.Type != a.Type || back.Ctx != a.Ctx || back.Chan != a.Chan || back.Size != a.Size {
			t.Fatalf("round trip mutated record: %v vs %v", a, back)
		}
	})
}

// FuzzParseTimestamp: must never panic; accepted values round-trip within
// microsecond precision.
func FuzzParseTimestamp(f *testing.F) {
	f.Add("12.345678")
	f.Add("-0.000001")
	f.Add("999999999")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseTimestamp(s)
		if err != nil {
			return
		}
		back, err := ParseTimestamp(FormatTimestamp(d))
		if err != nil || back != d.Truncate(1000) && back != d {
			// FormatTimestamp is µs-precision; sub-µs inputs can't appear
			// from ParseTimestamp so exact equality is expected.
			if err != nil {
				t.Fatalf("format of parsed %q failed: %v", s, err)
			}
		}
	})
}
