package activity

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSymbolsConcurrent hammers one interner from many goroutines with an
// overlapping vocabulary — the shape of several collector connections
// decoding records for the same deployment at once. Run under -race this
// is the interner's concurrency proof; afterwards every string must have
// exactly one symbol and Name must invert Intern.
func TestSymbolsConcurrent(t *testing.T) {
	s := NewSymbols()
	const goroutines = 8
	const vocab = 64
	words := make([]string, vocab)
	for i := range words {
		words[i] = fmt.Sprintf("host-%02d.example.com", i)
	}
	var wg sync.WaitGroup
	got := make([][]Sym, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			syms := make([]Sym, vocab)
			for round := 0; round < 50; round++ {
				for i, w := range words {
					sym := s.Intern(w)
					if round == 0 {
						syms[i] = sym
					} else if syms[i] != sym {
						t.Errorf("goroutine %d: %q interned as %d then %d", g, w, syms[i], sym)
						return
					}
					// Concurrent reverse lookups share the read lock.
					if name := s.Name(sym); name != w {
						t.Errorf("goroutine %d: Name(%d) = %q, want %q", g, sym, name, w)
						return
					}
				}
			}
			got[g] = syms
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 1; g < goroutines; g++ {
		for i := range words {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutines 0 and %d disagree on %q: %d vs %d", g, words[i], got[0][i], got[g][i])
			}
		}
	}
	if s.Len() != vocab {
		t.Fatalf("Len = %d after %d goroutines × %d words, want %d", s.Len(), goroutines, vocab, vocab)
	}
	if s.Intern("") == 0 {
		t.Fatal("empty string interned as the reserved zero symbol")
	}
}

// TestCodecKeyEquality: the same logical record decoded through the text
// parser and through the binary codec must come out with identical dense
// keys and identical canonical identity strings — both codecs bind
// against the one process-wide interner, so a record's identity does not
// depend on which wire format carried it.
func TestCodecKeyEquality(t *testing.T) {
	orig := binSample()
	line := FormatRecord(orig, false)
	fromText, err := ParseRecord(line)
	if err != nil {
		t.Fatalf("ParseRecord(%q): %v", line, err)
	}
	buf := AppendBinary(nil, boundSample())
	fromBin, _, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !fromText.CtxK.Bound() || fromText.Chan.Src.IP == 0 || fromText.Chan.Dst.IP == 0 {
		t.Fatalf("text parser left record unbound: %+v", fromText)
	}
	if fromText.CtxK != fromBin.CtxK {
		t.Fatalf("context keys differ by codec: text %+v, binary %+v", fromText.CtxK, fromBin.CtxK)
	}
	if fromText.Chan != fromBin.Chan {
		t.Fatalf("channels differ by codec: text %+v, binary %+v", fromText.Chan, fromBin.Chan)
	}
	if fromText.Ctx != fromBin.Ctx {
		t.Fatalf("identity strings differ by codec: text %+v/%+v, binary %+v/%+v",
			fromText.Ctx, fromText.Chan, fromBin.Ctx, fromBin.Chan)
	}
	// Round-trip through the interner's reverse map.
	if Syms.Name(fromText.CtxK.Host) != orig.Ctx.Host {
		t.Fatalf("Name(%d) = %q, want %q", fromText.CtxK.Host, Syms.Name(fromText.CtxK.Host), orig.Ctx.Host)
	}
	if Syms.Name(fromText.Chan.Src.IP) != Syms.Name(orig.Chan.Src.IP) {
		t.Fatalf("source IP %q, want %q", Syms.Name(fromText.Chan.Src.IP), Syms.Name(orig.Chan.Src.IP))
	}
	if k := fromText.Chan; k.Reverse().Reverse() != k {
		t.Fatalf("Reverse not an involution: %+v", k)
	}
}

// FuzzSymbolStability models a resumed transport connection: after a
// reconnect the agent re-encodes and resends unacknowledged records, and
// the collector decodes the resend into fresh pooled storage. Whatever
// the identity strings are, the second decode must bind to exactly the
// same symbols and keys as the first — symbol assignment is stable across
// re-decodes, so resume replays correlate identically. A record with an
// empty IP is rejected by every decode instead.
func FuzzSymbolStability(f *testing.F) {
	f.Add("web1", "httpd", "10.0.0.1", "10.0.0.2", int32(33210), int32(80))
	f.Add("db1", "mysqld", "2001:db8::1", "fe80::42", int32(3306), int32(54321))
	f.Add("", "", "", "", int32(0), int32(0))
	f.Add("host\nwith\tweird bytes", "a b", "not-an-ip", "\x00\xff", int32(-1), int32(1<<30))
	f.Fuzz(func(t *testing.T, host, prog, src, dst string, sport, dport int32) {
		rec := &Activity{
			ID:        1,
			Type:      Send,
			Timestamp: time.Second,
			Ctx:       Context{Host: host, Program: prog, PID: 1, TID: 2},
			Chan: Channel{
				Src: EP(src, int(sport)),
				Dst: EP(dst, int(dport)),
			},
		}
		buf := AppendBinary(nil, rec)
		first := NewRecord()
		if src == "" || dst == "" {
			// An empty IP is malformed (as in ParseRecord): every decode,
			// resends included, rejects it.
			for i := 0; i < 2; i++ {
				if _, err := DecodeBinaryInto(first, buf); err == nil {
					t.Fatalf("decode %d accepted an empty IP: %+v", i, first.Chan)
				}
			}
			ReleaseRecord(first)
			return
		}
		if _, err := DecodeBinaryInto(first, buf); err != nil {
			t.Fatalf("first decode: %v", err)
		}
		k1, c1 := first.CtxK, first.Chan
		names := [4]string{
			Syms.Name(k1.Host), Syms.Name(k1.Prog),
			Syms.Name(c1.Src.IP), Syms.Name(c1.Dst.IP),
		}
		ReleaseRecord(first)

		// The resend decodes into recycled pool storage — same bytes,
		// different *Activity — and must land on the same symbols.
		second := NewRecord()
		if _, err := DecodeBinaryInto(second, buf); err != nil {
			t.Fatalf("resend decode: %v", err)
		}
		if second.CtxK != k1 || second.Chan != c1 {
			t.Fatalf("resend bound differently: first %+v/%+v, resend %+v/%+v",
				k1, c1, second.CtxK, second.Chan)
		}
		if got := [4]string{
			Syms.Name(second.CtxK.Host), Syms.Name(second.CtxK.Prog),
			Syms.Name(second.Chan.Src.IP), Syms.Name(second.Chan.Dst.IP),
		}; got != names {
			t.Fatalf("symbol names drifted across re-decode: %q vs %q", names, got)
		}
		if second.Ctx.Host != host || second.Ctx.Program != prog ||
			Syms.Name(second.Chan.Src.IP) != src || Syms.Name(second.Chan.Dst.IP) != dst {
			t.Fatalf("canonicalized strings changed content: %+v %+v", second.Ctx, second.Chan)
		}
		ReleaseRecord(second)
	})
}

// TestSymbolsNameLockFree: Name reads the name table without a lock while
// Intern grows it across several chunks. Readers look up the newest
// symbol Len publishes, with no other synchronisation, so under -race this
// is the proof that publication orders the slot write before the length.
// Name must not allocate.
func TestSymbolsNameLockFree(t *testing.T) {
	s := NewSymbols()
	const n = 3*symChunk + 17
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sym := Sym(s.Len())
				if sym == 0 {
					continue
				}
				if got, want := s.Name(sym), fmt.Sprintf("ip-%d", sym); got != want {
					t.Errorf("Name(%d) = %q, want %q", sym, got, want)
					return
				}
				if got := s.Name(sym + n); got != "" {
					t.Errorf("Name(%d) past the table = %q", sym+n, got)
					return
				}
			}
		}()
	}
	for i := 1; i <= n; i++ {
		// The vocabulary is "ip-<sym>", so a reader can check any symbol.
		if sym := s.Intern(fmt.Sprintf("ip-%d", i)); sym != Sym(i) {
			t.Errorf("Intern #%d gave symbol %d", i, sym)
			break
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Name(Sym(n / 2)) }); allocs != 0 {
		t.Fatalf("Name allocates %.1f times per call", allocs)
	}
}
