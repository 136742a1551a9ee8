// Package sketch provides the bounded-memory streaming summaries the
// live monitor's sketched mode runs on: a space-saving heavy-hitter
// sketch for pattern-signature frequencies (TopK) and a Greenwald–
// Khanna quantile sketch for latency distributions (Quantile). Both
// hold a fixed number of counters/tuples regardless of stream length,
// trading exactness for provable error bounds (see the package tests,
// which assert the bounds against exact computation on randomized
// streams).
package sketch

import "sort"

// Counter is one tracked item in a TopK sketch. Count overestimates the
// item's true frequency by at most Err: true ∈ [Count-Err, Count].
type Counter struct {
	Key   string
	Count uint64
	// Err is the overestimation bound inherited from the counter this
	// item displaced (0 if the item has been tracked since the sketch
	// had spare capacity).
	Err uint64
}

// TopK is the space-saving heavy-hitter sketch (Metwally et al.,
// "Efficient Computation of Frequent and Top-k Elements in Data
// Streams"). It tracks at most k items; when a new item arrives at
// capacity, the minimum-count item is evicted and the newcomer inherits
// its count as the error bound. Guarantees, with N observations total:
//
//   - for every tracked item, Count-Err ≤ true ≤ Count;
//   - every Err ≤ N/k, so any item with true frequency > N/k is
//     guaranteed to be tracked.
//
// Ties on eviction break deterministically toward the smallest key, so
// identical streams produce identical sketches.
type TopK struct {
	k     int
	n     uint64
	items map[string]*topkItem
	heap  []*topkItem // min-heap by (count asc, key desc): root = eviction victim
}

type topkItem struct {
	key   string
	count uint64
	err   uint64
	pos   int // index in heap
}

// NewTopK returns a sketch tracking at most k items. k < 1 is treated
// as 1.
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, items: make(map[string]*topkItem, k)}
}

// Observe counts one occurrence of key. If tracking key required
// evicting another item, the evicted key is returned with ok=true.
func (t *TopK) Observe(key string) (evicted string, ok bool) {
	t.n++
	if it, exists := t.items[key]; exists {
		it.count++
		t.siftDown(it.pos)
		return "", false
	}
	if len(t.items) < t.k {
		it := &topkItem{key: key, count: 1, pos: len(t.heap)}
		t.items[key] = it
		t.heap = append(t.heap, it)
		t.siftUp(it.pos)
		return "", false
	}
	// At capacity: replace the minimum-count item. The newcomer's count
	// becomes min+1 with error bound min — the classic space-saving
	// replacement.
	victim := t.heap[0]
	delete(t.items, victim.key)
	evicted = victim.key
	it := &topkItem{key: key, count: victim.count + 1, err: victim.count, pos: 0}
	t.items[key] = it
	t.heap[0] = it
	t.siftDown(0)
	return evicted, true
}

// Items returns the tracked counters ordered by count descending, key
// ascending — a deterministic ranking.
func (t *TopK) Items() []Counter {
	out := make([]Counter, 0, len(t.items))
	for _, it := range t.items {
		out = append(out, Counter{Key: it.key, Count: it.count, Err: it.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len is the number of items currently tracked (≤ k).
func (t *TopK) Len() int { return len(t.items) }

// Reset empties the sketch, keeping its capacity.
func (t *TopK) Reset() {
	t.n = 0
	t.heap = t.heap[:0]
	for k := range t.items {
		delete(t.items, k)
	}
}

// heap ordering: the root is the next eviction victim — smallest count,
// and among equal counts the LARGEST key, so eviction deterministically
// spares smaller keys (stable under permutations of equal-count items).
func (t *TopK) less(i, j int) bool {
	a, b := t.heap[i], t.heap[j]
	if a.count != b.count {
		return a.count < b.count
	}
	return a.key > b.key
}

func (t *TopK) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.heap[i].pos = i
	t.heap[j].pos = j
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && t.less(l, smallest) {
			smallest = l
		}
		if r < n && t.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		t.swap(i, smallest)
		i = smallest
	}
}
