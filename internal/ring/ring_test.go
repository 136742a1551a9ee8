package ring

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestRingSPSCOracle drives one producer and one consumer with randomly
// sized batch operations and checks the consumed sequence against a
// buffered Go channel fed the same items — the FIFO oracle: same items,
// same order, no loss, no duplication.
func TestRingSPSCOracle(t *testing.T) {
	const total = 10000
	r := New[int](17) // odd capacity exercises wraparound at every lap
	oracle := make(chan int, total)

	go func() {
		rng := rand.New(rand.NewSource(1))
		next := 0
		for next < total {
			n := min(1+rng.Intn(9), total-next)
			batch := make([]int, n)
			for i := range batch {
				batch[i] = next
				oracle <- next
				next++
			}
			if got := r.PushBatch(batch); got != n {
				panic("short push on open ring")
			}
		}
		r.Close()
		close(oracle)
	}()

	rng := rand.New(rand.NewSource(2))
	buf := make([]int, 8)
	got := 0
	for {
		n := r.PopBatch(buf[:1+rng.Intn(8)])
		if n == 0 {
			break
		}
		for _, v := range buf[:n] {
			want, ok := <-oracle
			if !ok {
				t.Fatalf("ring delivered %d extra item(s)", n)
			}
			if v != want {
				t.Fatalf("item %d: got %d, oracle says %d", got, v, want)
			}
			got++
		}
	}
	if got != total {
		t.Fatalf("consumed %d items, want %d", got, total)
	}
	if _, ok := <-oracle; ok {
		t.Fatal("oracle has items the ring lost")
	}
}

// TestRingMPMCNoLossNoDup runs several producers and consumers pushing
// and popping concurrent batches and checks the two invariants an MPMC
// FIFO owes its users: every pushed item is popped exactly once, and
// each consumer sees any single producer's items in push order (batches
// are taken contiguously, so per-producer order survives as a
// subsequence at every consumer).
func TestRingMPMCNoLossNoDup(t *testing.T) {
	const (
		producers = 4
		consumers = 3
		perProd   = 5000
	)
	type item struct{ prod, seq int }
	r := New[item](64)

	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			seq := 0
			for seq < perProd {
				n := min(1+rng.Intn(12), perProd-seq)
				batch := make([]item, n)
				for i := range batch {
					batch[i] = item{prod: p, seq: seq}
					seq++
				}
				if got := r.PushBatch(batch); got != n {
					panic("short push on open ring")
				}
			}
		}(p)
	}

	var cwg sync.WaitGroup
	consumed := make([][]item, consumers)
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			buf := make([]item, 16)
			for {
				n := r.PopBatch(buf)
				if n == 0 {
					return
				}
				consumed[c] = append(consumed[c], buf[:n]...)
			}
		}(c)
	}

	pwg.Wait()
	r.Close()
	cwg.Wait()

	seen := make(map[item]int)
	for c, vs := range consumed {
		lastSeq := make([]int, producers)
		for i := range lastSeq {
			lastSeq[i] = -1
		}
		for _, v := range vs {
			seen[v]++
			if v.seq <= lastSeq[v.prod] {
				t.Fatalf("consumer %d saw producer %d out of order: seq %d after %d", c, v.prod, v.seq, lastSeq[v.prod])
			}
			lastSeq[v.prod] = v.seq
		}
	}
	if len(seen) != producers*perProd {
		t.Fatalf("consumed %d distinct items, want %d", len(seen), producers*perProd)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %+v consumed %d times", v, n)
		}
	}
}

// TestRingCloseDrains checks the closed-channel-like semantics: buffered
// items survive Close and drain in order, then every pop reports
// exhaustion and every push is refused.
func TestRingCloseDrains(t *testing.T) {
	r := New[int](8)
	if n := r.PushBatch([]int{0, 1, 2, 3, 4}); n != 5 {
		t.Fatalf("PushBatch on open ring accepted %d of 5", n)
	}
	r.Close()
	r.Close() // idempotent
	if n := r.PushBatch([]int{1, 2}); n != 0 {
		t.Fatalf("PushBatch after close accepted %d items", n)
	}
	buf := make([]int, 3)
	if n := r.PopBatch(buf); n != 3 || buf[0] != 0 || buf[1] != 1 || buf[2] != 2 {
		t.Fatalf("first drain batch = %v (n=%d)", buf[:n], n)
	}
	if n := r.PopBatch(buf); n != 2 || buf[0] != 3 || buf[1] != 4 {
		t.Fatalf("second drain batch = %v (n=%d)", buf[:n], n)
	}
	if n := r.PopBatch(buf); n != 0 {
		t.Fatalf("PopBatch on drained closed ring returned %d", n)
	}
}

// TestRingCloseUnblocks checks that Close wakes both a pusher blocked on
// a full ring and a popper blocked on an empty one.
func TestRingCloseUnblocks(t *testing.T) {
	full := New[int](1)
	full.PushBatch([]int{1})
	empty := New[int](1)
	done := make(chan string, 2)
	go func() {
		full.PushBatch([]int{2}) // blocks: full
		done <- "push"
	}()
	go func() {
		empty.PopBatch(make([]int, 4)) // blocks: empty
		done <- "pop"
	}()
	time.Sleep(10 * time.Millisecond)
	full.Close()
	empty.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("blocked operation did not wake on Close")
		}
	}
}

// TestRingBatchLargerThanCapacity pushes a batch longer than the ring
// and checks it lands whole, in order, as the consumer frees space.
func TestRingBatchLargerThanCapacity(t *testing.T) {
	const total = 100
	r := New[int](7)
	batch := make([]int, total)
	for i := range batch {
		batch[i] = i
	}
	go func() {
		if got := r.PushBatch(batch); got != total {
			panic("short push on open ring")
		}
		r.Close()
	}()
	buf := make([]int, 5)
	next := 0
	for {
		n := r.PopBatch(buf)
		if n == 0 {
			break
		}
		for _, v := range buf[:n] {
			if v != next {
				t.Fatalf("got %d, want %d", v, next)
			}
			next++
		}
	}
	if next != total {
		t.Fatalf("drained %d items, want %d", next, total)
	}
}

// TestRingPopBatchAdaptive pins PopBatch's counts: it returns at once
// with whatever is buffered up to len(dst) — never waiting for the
// buffer to fill — an empty dst takes nothing, and a push that exactly
// fills the ring wraps correctly.
func TestRingPopBatchAdaptive(t *testing.T) {
	r := New[int](4)
	if n := r.PopBatch(nil); n != 0 {
		t.Fatalf("PopBatch(nil) = %d", n)
	}
	r.PushBatch([]int{0, 1})
	buf := make([]int, 10)
	if n := r.PopBatch(buf); n != 2 || buf[0] != 0 || buf[1] != 1 {
		t.Fatalf("PopBatch = %v (n=%d), want [0 1]", buf[:n], n)
	}
	if n := r.PushBatch([]int{2, 3, 4, 5}); n != 4 { // head is 2: wraps
		t.Fatalf("PushBatch into empty capacity-4 ring accepted %d", n)
	}
	if n := r.PopBatch(buf[:3]); n != 3 || buf[0] != 2 || buf[2] != 4 {
		t.Fatalf("PopBatch = %v (n=%d), want [2 3 4]", buf[:n], n)
	}
	if n := r.PopBatch(buf); n != 1 || buf[0] != 5 {
		t.Fatalf("PopBatch = %v (n=%d), want [5]", buf[:n], n)
	}
}

// TestRingNewPanics pins the constructor contract.
func TestRingNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

// TestRingStress is the -race workout: a small ring hammered by batch
// operations of every size — single items, runs that fit, runs longer
// than the capacity — from many goroutines at once. The assertions are
// the conservation ones (no loss, no duplication); the value is the race
// detector coverage of every code path.
func TestRingStress(t *testing.T) {
	const (
		producers = 6
		consumers = 6
		perProd   = 2000
	)
	r := New[int](8)
	var pwg, cwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			base := p * perProd
			sent := 0
			for sent < perProd {
				n := min(1+rng.Intn(12), perProd-sent)
				batch := make([]int, n)
				for i := range batch {
					batch[i] = base + sent + i
				}
				sent += r.PushBatch(batch)
			}
		}(p)
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			buf := make([]int, 6)
			for {
				n := r.PopBatch(buf[:1+rng.Intn(len(buf))])
				if n == 0 {
					return
				}
				mu.Lock()
				for _, v := range buf[:n] {
					seen[v]++
				}
				mu.Unlock()
			}
		}(c)
	}
	pwg.Wait()
	r.Close()
	cwg.Wait()
	if len(seen) != producers*perProd {
		t.Fatalf("consumed %d distinct items, want %d", len(seen), producers*perProd)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d consumed %d times", v, n)
		}
	}
}
