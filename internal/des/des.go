// Package des provides a deterministic discrete-event simulation core used
// by the testbed that stands in for the paper's physical 8-node cluster.
//
// The simulator is single-threaded and callback-based: events are closures
// scheduled at virtual times, executed in (time, sequence) order. Determinism
// matters because the reproduction's accuracy experiments compare correlator
// output against ground truth; a deterministic substrate makes every run
// repeatable bit-for-bit for a given seed.
package des

import (
	"container/heap"
	"time"
)

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at       time.Duration
	seq      uint64
	fn       func()
	index    int // heap index, -1 once fired or cancelled
	canceled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e, ok := x.(*Event)
	if !ok {
		return
	}
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is not usable; construct with New.
type Simulator struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	fired  uint64
}

// New returns an empty simulator positioned at virtual time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Schedule queues fn to run after delay. A negative delay is treated as
// zero (run "now", after currently queued same-time events).
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Times in the past
// are clamped to the current time.
func (s *Simulator) ScheduleAt(t time.Duration, fn func()) *Event {
	if t < s.now {
		t = s.now
	}
	e := &Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// Step executes the single earliest pending event. It returns false when the
// queue is empty.
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		ev, ok := heap.Pop(&s.events).(*Event)
		if !ok {
			return false
		}
		if ev.canceled {
			continue
		}
		s.now = ev.at
		s.fired++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}
