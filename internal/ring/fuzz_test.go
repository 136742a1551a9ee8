package ring

import "testing"

// FuzzRingModel drives a ring of fuzzer-chosen capacity with a
// fuzzer-chosen sequence of batch operations and checks every step
// against a buffered Go channel of the same capacity — the bounded FIFO
// oracle. Operations are sized so a single goroutine never blocks:
// pushes take at most the free space, pops run only while something is
// buffered or the ring is closed. This is the wraparound/capacity edge
// hunter: head wrap at odd capacities, batches that straddle the wrap
// point, fill-to-exactly-full, drain-to-empty, and operations after Close
// all fall out of the op stream. A final Close-and-drain checks that
// nothing is lost or left behind.
func FuzzRingModel(f *testing.F) {
	f.Add(uint8(1), []byte{0, 1, 1, 1, 0, 1})
	f.Add(uint8(3), []byte{0, 3, 1, 2, 0, 2, 1, 9, 2, 1, 4})
	f.Add(uint8(7), []byte{0, 40, 1, 20, 0, 200, 1, 255, 2, 0, 1})
	f.Add(uint8(16), []byte{0, 255, 1, 9, 0, 8, 1, 255, 0, 3})
	f.Fuzz(func(t *testing.T, capByte uint8, ops []byte) {
		capacity := int(capByte%16) + 1
		r := New[int](capacity)
		model := make(chan int, capacity)
		next := 0
		closed := false
		i := 0
		arg := func() int { // consume one operand byte, default 1
			i++
			if i < len(ops) {
				return int(ops[i]) % (2*capacity + 2)
			}
			return 1
		}
		pop := func(n int) {
			buf := make([]int, n)
			got := r.PopBatch(buf)
			if want := min(len(model), n); got != want {
				t.Fatalf("op %d: PopBatch(%d) = %d, model says %d (closed=%v)", i, n, got, want, closed)
			}
			for j, v := range buf[:got] {
				if want := <-model; v != want {
					t.Fatalf("op %d: PopBatch item %d = %d, model %d", i, j, v, want)
				}
			}
		}
		for ; i < len(ops); i++ {
			switch ops[i] % 3 {
			case 0: // PushBatch of an operand-sized run, capped at the free space
				n := arg()
				if !closed {
					n = min(n, capacity-len(model))
				}
				batch := make([]int, n)
				for j := range batch {
					batch[j] = next + j
				}
				got := r.PushBatch(batch)
				want := n
				if closed {
					want = 0
				}
				if got != want {
					t.Fatalf("op %d: PushBatch(%d) = %d, model says %d (closed=%v)", i, n, got, want, closed)
				}
				for _, v := range batch[:got] {
					model <- v
				}
				next += got
			case 1: // PopBatch into an operand-sized buffer, when it cannot block
				if n := arg(); len(model) > 0 || closed {
					pop(n)
				}
			default: // Close (idempotent; keeps draining)
				r.Close()
				if !closed {
					close(model)
				}
				closed = true
			}
		}
		r.Close()
		if !closed {
			close(model)
		}
		closed = true
		for len(model) > 0 {
			pop(capacity)
		}
		pop(capacity) // drained and closed: must report exhaustion
	})
}
