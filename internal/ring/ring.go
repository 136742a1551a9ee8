// Package ring provides the bounded FIFO ring buffer that carries sealed
// components from the streaming engine's stage 1 to its worker pool: a
// fixed-capacity queue whose batch operations move a whole run of items
// under one lock acquisition.
//
// That amortization is the point. A Go channel pays its synchronization
// per element — one lock/unlock (and often a goroutine wakeup) per send
// and per receive. A pipeline stage that produces or consumes items in
// runs can instead pay once per run: PushBatch and PopBatch acquire the
// lock once and move as many items as capacity allows, so the handoff
// cost per item shrinks with the run length (see BenchmarkRing for the
// crossover against channels).
//
// PopBatch is deliberately adaptive: it blocks only until at least one
// item is available and then takes whatever is there, up to the caller's
// buffer. Batches therefore form only under backlog — a lightly loaded
// ring degenerates to per-item handoff with channel-like latency, never
// holding an item hostage waiting for a batch to fill.
//
// Close semantics mirror closed channels: pushes are refused, pops drain
// the remaining items and then report exhaustion with a zero count. All
// methods are safe for any number of concurrent pushers and poppers;
// items pushed by one goroutine are popped in push order, and each popper
// sees any single pusher's items as an ordered subsequence (batches are
// taken contiguously in FIFO order).
//
// The package is dependency-free (sync only) by design — it sits under
// the innermost hot path of internal/core.
package ring

import "sync"

// Ring is a bounded multi-producer multi-consumer FIFO buffer.
// The zero value is not usable; call New.
type Ring[T any] struct {
	mu       sync.Mutex
	notEmpty sync.Cond // signaled when items arrive or the ring closes
	notFull  sync.Cond // signaled when space frees or the ring closes
	buf      []T
	head     int // index of the oldest element
	n        int // elements currently buffered
	closed   bool
}

// New returns an empty ring holding at most capacity items.
// It panics if capacity is less than 1.
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		panic("ring: capacity must be >= 1")
	}
	r := &Ring[T]{buf: make([]T, capacity)}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// PushBatch appends the items in order, blocking for space as needed;
// each time space frees it moves the longest possible run under the one
// lock acquisition (a batch longer than the capacity is pushed in
// capacity-sized runs). It returns how many items were accepted — fewer
// than len(vs) only if the ring was closed mid-batch.
func (r *Ring[T]) PushBatch(vs []T) int {
	pushed := 0
	r.mu.Lock()
	for pushed < len(vs) {
		for r.n == len(r.buf) && !r.closed {
			r.notFull.Wait()
		}
		if r.closed {
			break
		}
		run := min(len(r.buf)-r.n, len(vs)-pushed)
		for _, v := range vs[pushed : pushed+run] {
			i := r.head + r.n
			if i >= len(r.buf) {
				i -= len(r.buf)
			}
			r.buf[i] = v
			r.n++
		}
		pushed += run
		r.notEmpty.Broadcast()
	}
	r.mu.Unlock()
	return pushed
}

// PopBatch blocks until at least one item is available, then moves as
// many as are buffered — up to len(dst) — into dst under the one lock
// acquisition, returning the count. A zero count means the ring is
// closed and fully drained (or dst is empty). Vacated slots are zeroed
// so the ring never pins popped items against the garbage collector.
func (r *Ring[T]) PopBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	r.mu.Lock()
	for r.n == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	n := min(r.n, len(dst))
	if n == 0 {
		r.mu.Unlock()
		return 0
	}
	var zero T
	for i := range dst[:n] {
		dst[i] = r.buf[r.head]
		r.buf[r.head] = zero
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
	}
	r.n -= n
	r.notFull.Broadcast()
	r.mu.Unlock()
	return n
}

// Close marks the ring closed: further pushes are refused, pops drain
// what remains and then report exhaustion, and every blocked operation
// wakes. Closing twice is a no-op.
func (r *Ring[T]) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.notEmpty.Broadcast()
		r.notFull.Broadcast()
	}
	r.mu.Unlock()
}
