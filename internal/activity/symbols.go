// Identity layer: dense symbols for the identity strings every activity
// carries (hostname, program name, IP), interned once at the decode
// boundary, plus the packed key form of Context the hot maps key on.
//
// A channel has one representation: Channel holds its IPs as symbols, so
// it is its own 16-byte comparable key, and the address strings appear
// only at the edges (codecs, String/AppendTo, OTLP, lint, IP-to-host
// maps), resolved through Syms.Name.
//
// Why a context has two representations. The identity *vocabulary* —
// distinct host/program/IP strings — is small and bounded by the
// deployment, so a process-wide interner (Symbols) can map each string to
// a dense uint32 symbol and never give it back. The identity *tuples* are
// not: interning whole contexts or channels (ephemeral ports) would leak
// in a forever-open collector that otherwise prunes its per-channel state
// (flow.Incremental does exactly that). CtxKey is therefore a packed
// struct of symbols and integers, not an interned id. The Context strings
// stay beside it because the render and report edges read them; Bind
// replaces them with the interner's canonical copies, so a million parsed
// records share one "web.example.com" allocation instead of pinning a
// million log-line buffers.
package activity

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Sym is a dense symbol for one interned identity string. The zero Sym is
// reserved and never allocated, so key forms built from symbols can use 0
// as the "not bound yet" sentinel.
type Sym uint32

// symChunk is the size of one block of the name table. Blocks never move
// once allocated, so a published name stays where a reader found it.
const symChunk = 1024

// Symbols is a concurrency-safe string interner. The zero value is not
// usable; call NewSymbols. Lookups on already-interned strings take a
// read lock only; Name takes no lock at all.
type Symbols struct {
	mu  sync.RWMutex
	ids map[string]Sym

	// The name table (Sym -> string, index 0 reserved) is append-only:
	// a writer fills slot n under mu, then publishes n+1 through count.
	// A reader that loads count sees every slot below it and a chunk
	// list that covers them; no slot or list entry is written twice.
	chunks atomic.Pointer[[]*[symChunk]string]
	count  atomic.Uint32
}

// NewSymbols returns an empty interner.
func NewSymbols() *Symbols {
	s := &Symbols{ids: make(map[string]Sym)}
	chunks := []*[symChunk]string{new([symChunk]string)}
	s.chunks.Store(&chunks)
	s.count.Store(1)
	return s
}

// Intern returns the dense symbol for str, allocating one on first sight.
func (s *Symbols) Intern(str string) Sym {
	sym, _ := s.intern(str)
	return sym
}

// intern returns the symbol and the canonical (interner-owned) copy of
// str, so callers can drop their own copy and share storage.
func (s *Symbols) intern(str string) (Sym, string) {
	s.mu.RLock()
	sym, ok := s.ids[str]
	s.mu.RUnlock()
	if !ok {
		sym = s.add(str)
	}
	return sym, s.Name(sym)
}

// internBytes is the decoder fast path: on a hit it performs no
// allocation at all (the map index converts without copying), returning
// the canonical string for the bytes.
func (s *Symbols) internBytes(b []byte) (Sym, string) {
	s.mu.RLock()
	sym, ok := s.ids[string(b)]
	s.mu.RUnlock()
	if !ok {
		sym = s.add(string(b))
	}
	return sym, s.Name(sym)
}

// add allocates str's symbol unless a racing writer already did.
func (s *Symbols) add(str string) Sym {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sym, ok := s.ids[str]; ok {
		return sym
	}
	// Clone so the interner never pins a caller's larger backing array
	// (parsed records would otherwise keep whole log lines alive).
	str = strings.Clone(str)
	n := s.count.Load()
	chunks := *s.chunks.Load()
	if int(n/symChunk) == len(chunks) {
		grown := append(chunks, new([symChunk]string))
		s.chunks.Store(&grown)
		chunks = grown
	}
	chunks[n/symChunk][n%symChunk] = str
	s.count.Store(n + 1)
	s.ids[str] = Sym(n)
	return Sym(n)
}

// Name returns the string a symbol was allocated for, or "" for the
// reserved zero symbol and out-of-range values. It neither locks nor
// allocates: the edges call it twice per record or vertex.
func (s *Symbols) Name(sym Sym) string {
	if uint32(sym) >= s.count.Load() {
		return ""
	}
	return (*s.chunks.Load())[sym/symChunk][sym%symChunk]
}

// CtxKey is the dense key form of a Context: the same identity as the
// (host, program, pid, tid) tuple, with the strings replaced by their
// interned symbols. Comparable, fixed-width, and free of pointer or
// string bytes — hashing one is a memhash over four words, not a walk
// over two strings.
type CtxKey struct {
	Host, Prog Sym
	PID, TID   int32
}

// Bound reports whether the key has been filled by Bind (the interner
// never allocates the zero symbol).
func (k CtxKey) Bound() bool { return k.Host != 0 }

// Syms is the process-wide interner. Both codecs bind records against it
// at the decode boundary, EP interns against it, and consumers that meet
// a hand-built (unbound) record call Bind lazily, so symbols are
// consistent process-wide regardless of where a record entered.
var Syms = NewSymbols()

// Bind fills a's dense context key (CtxK) from the process-wide interner
// and canonicalizes the context strings to the interned copies. It is
// idempotent and cheap on a bound record, so consumers call it on every
// record they meet; a record whose context is mutated after binding must
// be re-bound by clearing CtxK first. Bind is safe for concurrent use on
// distinct records, but two goroutines must not bind the same unbound
// record concurrently (it writes to *a).
func Bind(a *Activity) {
	if !a.CtxK.Bound() {
		bind(a)
	}
}

func bind(a *Activity) {
	a.CtxK.Host, a.Ctx.Host = Syms.intern(a.Ctx.Host)
	a.CtxK.Prog, a.Ctx.Program = Syms.intern(a.Ctx.Program)
	a.CtxK.PID, a.CtxK.TID = a.Ctx.PID, a.Ctx.TID
}

// recPool recycles decode-side Activity records: the network collector
// decodes every frame into pooled records, the session copies what it
// keeps (Session.Push and replay both copy before buffering), and the
// ingest front releases the decoded records once applied.
var recPool = sync.Pool{New: func() any { return new(Activity) }}

// NewRecord returns a zeroed Activity from the decode-side pool.
func NewRecord() *Activity { return recPool.Get().(*Activity) }

// ReleaseRecord returns a record to the decode-side pool. The caller must
// not retain any pointer to it; anything worth keeping was copied by the
// session when the record was applied.
func ReleaseRecord(a *Activity) {
	*a = Activity{}
	recPool.Put(a)
}
