// Package pendq provides the arrival-ordered indexed pending queue that
// backs the simulators' hot path.
//
// Both simulation engines maintain sets of untransmitted messages ordered
// by arrival time and repeatedly (1) count how many fall inside a probed
// window, (2) extract the single message of a successful window, and
// (3) discard every message older than the deadline horizon (policy
// element (4)).  A plain sorted slice makes (1) cheap but pays an O(n)
// memmove for every (2) and (3) — the dominant cost of heavy-backlog
// runs.
//
// Queue replaces the sorted slice with an arrival-ordered buffer plus a
// Fenwick (binary-indexed) tree of liveness flags, and answers queries
// from the oldest live item outward, where the controlled policy's
// windows sit:
//
//   - Push appends in arrival order (arrivals are generated monotonically),
//     amortized O(log n) for the tree update;
//   - a window's start is found by galloping from the oldest live item,
//     O(log d) in the distance d from it;
//   - CountIn and PopFirstIn answer a window that ends within a few
//     slots of its start by scanning those slots, and fall back to
//     Fenwick prefix sums, O(log n), only for a longer window;
//   - OldestTwoFrom and NewestTwoBelow, the two keys a windowing
//     process is decided from (window.Descend), scan the same way from
//     a window's start or end, O(log n) only past the scan;
//   - PopFirstIn marks the element dead in the tree instead of moving
//     memory (lazy deletion), O(log n);
//   - DiscardBelow advances a head index over the expired prefix,
//     amortized O(1) per discarded message.
//
// The head index always rests on the oldest live slot: PopFirstIn and
// DiscardBelow both step it past the dead slots that follow.
//
// Dead slots are physically reclaimed only during compaction, which runs
// when the buffer fills and at least half of it is reclaimable; each
// element is moved O(1) times amortized, and once the buffer has grown to
// twice the peak live backlog the queue never allocates again — the
// engines' zero-steady-state-allocation invariant rests on this.
package pendq

import (
	"fmt"
	"math"
)

// scanSlots bounds the slots, live or dead, that CountIn and firstIn walk
// from a window's start before falling back to the Fenwick tree.
const scanSlots = 16

// Queue is an arrival-time-ordered multiset of items supporting
// logarithmic window counting and extraction.  Keys must be pushed in
// non-decreasing order.  The zero value is ready to use.
type Queue[T any] struct {
	keys  []float64 // non-decreasing, including dead slots
	items []T
	dead  []bool
	tree  []int32 // 1-indexed Fenwick tree over liveness; len = cap(keys)+1
	top   int32   // highest power of two <= cap(keys), for tree descent
	head  int     // the oldest live slot, or len(keys) when empty
	live  int
}

// Len returns the number of live items.
func (q *Queue[T]) Len() int { return q.live }

// treeAdd adds delta at 0-based slot i.
func (q *Queue[T]) treeAdd(i int, delta int32) {
	for j := i + 1; j < len(q.tree); j += j & -j {
		q.tree[j] += delta
	}
}

// treePrefix returns the number of live items in slots [0, i).
func (q *Queue[T]) treePrefix(i int) int {
	s := int32(0)
	for ; i > 0; i -= i & -i {
		s += q.tree[i]
	}
	return int(s)
}

// treeKth returns the 0-based slot of the k-th (1-based) live item.  The
// caller guarantees 1 <= k <= live.
func (q *Queue[T]) treeKth(k int) int {
	pos := 0
	rem := int32(k)
	for bit := q.top; bit > 0; bit >>= 1 {
		if next := pos + int(bit); next < len(q.tree) && q.tree[next] < rem {
			rem -= q.tree[next]
			pos = next
		}
	}
	return pos // treePrefix(pos) < k <= treePrefix(pos+1)
}

// lowerBound returns the first slot in [from, len) whose key is >= x,
// galloping from `from` and then bisecting the bracket it found: O(log d)
// for an answer d slots away.
func (q *Queue[T]) lowerBound(from int, x float64) int {
	n := len(q.keys)
	if from >= n || !(q.keys[from] < x) {
		return from
	}
	// keys[lo] < x throughout; the answer lies in (lo, hi].
	lo, step := from, 1
	hi := lo + step
	for hi < n && q.keys[hi] < x {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	lo++
	if hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.keys[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Push appends an item.  It panics if key is below the last pushed key:
// the queue relies on monotone arrival generation for its ordering.
func (q *Queue[T]) Push(key float64, item T) {
	if key != key {
		panic("pendq: NaN key")
	}
	if n := len(q.keys); n > 0 && key < q.keys[n-1] {
		panic(fmt.Sprintf("pendq: key %v below last key %v", key, q.keys[n-1]))
	}
	if len(q.keys) == cap(q.keys) {
		q.grow()
	}
	q.keys = append(q.keys, key)
	q.items = append(q.items, item)
	q.dead = append(q.dead, false)
	q.treeAdd(len(q.keys)-1, 1)
	q.live++
}

// grow makes room for at least one more slot.  If at least half the
// buffer is dead, the live items are compacted in place — no allocation;
// otherwise capacity doubles.  Either way the Fenwick tree is rebuilt in
// O(cap).
func (q *Queue[T]) grow() {
	capacity := cap(q.keys)
	if capacity-q.live >= capacity/2 && capacity >= 16 {
		q.compact(capacity)
		return
	}
	newCap := capacity * 2
	if newCap < 16 {
		newCap = 16
	}
	q.compact(newCap)
}

// compact rewrites the buffer with all dead slots dropped, into fresh
// arrays when newCap exceeds the current capacity and in place otherwise.
func (q *Queue[T]) compact(newCap int) {
	keys, items, dead := q.keys, q.items, q.dead
	if newCap > cap(q.keys) {
		keys = make([]float64, 0, newCap)
		items = make([]T, 0, newCap)
		dead = make([]bool, 0, newCap)
		q.tree = make([]int32, newCap+1)
		q.top = 1
		for q.top*2 <= int32(newCap) {
			q.top *= 2
		}
		keys = keys[:len(q.keys)]
		items = items[:len(q.items)]
		dead = dead[:len(q.dead)]
		copy(keys, q.keys)
		copy(items, q.items)
		copy(dead, q.dead)
	} else {
		clear(q.tree)
	}
	w := 0
	for r := q.head; r < len(keys); r++ {
		if dead[r] {
			continue
		}
		keys[w], items[w], dead[w] = keys[r], items[r], false
		w++
	}
	if w != q.live {
		panic(fmt.Sprintf("pendq: compaction found %d live, tracked %d", w, q.live))
	}
	var zero T
	for i := w; i < len(items); i++ {
		items[i] = zero // release references held by dead slots
	}
	q.keys, q.items, q.dead = keys[:w], items[:w], dead[:w]
	q.head = 0
	// O(cap) Fenwick build over w ones.  The sweep must cover the whole
	// tree, not just [1, w]: interior nodes above w hold partial sums of
	// their children and still have to propagate them upward.
	for i := 1; i < len(q.tree); i++ {
		if i <= w {
			q.tree[i]++
		}
		if j := i + (i & -i); j < len(q.tree) {
			q.tree[j] += q.tree[i]
		}
	}
}

// CountIn returns the number of live items with keys in [lo, hi).
func (q *Queue[T]) CountIn(lo, hi float64) int {
	if hi <= lo || q.live == 0 {
		return 0
	}
	i := q.lowerBound(q.head, lo)
	end := min(i+scanSlots, len(q.keys))
	n := 0
	for j := i; j < end; j++ {
		if !(q.keys[j] < hi) {
			return n
		}
		if !q.dead[j] {
			n++
		}
	}
	if end == len(q.keys) {
		return n
	}
	return n + q.treePrefix(q.lowerBound(end, hi)) - q.treePrefix(end)
}

// firstIn locates the oldest live item with key in [lo, hi), returning
// its slot or -1.
func (q *Queue[T]) firstIn(lo, hi float64) int {
	if hi <= lo || q.live == 0 {
		return -1
	}
	i := q.lowerBound(q.head, lo)
	end := min(i+scanSlots, len(q.keys))
	for j := i; j < end; j++ {
		if q.keys[j] >= hi {
			return -1
		}
		if !q.dead[j] {
			return j
		}
	}
	if end == len(q.keys) {
		return -1
	}
	k := q.treePrefix(end)
	if k >= q.live {
		return -1
	}
	idx := q.treeKth(k + 1)
	if idx >= len(q.keys) || q.keys[idx] >= hi {
		return -1
	}
	return idx
}

// OldestTwoFrom returns the keys of the two oldest live items with key
// >= lo, oldest first, reading +Inf for each that does not exist.  It
// walks at most scanSlots slots from lo's slot before falling back to
// the Fenwick tree, as CountIn does.
func (q *Queue[T]) OldestTwoFrom(lo float64) (k1, k2 float64) {
	k := [2]float64{math.Inf(1), math.Inf(1)}
	if q.live == 0 {
		return k[0], k[1]
	}
	i := q.lowerBound(q.head, lo)
	end := min(i+scanSlots, len(q.keys))
	found := 0
	for j := i; j < end && found < 2; j++ {
		if !q.dead[j] {
			k[found] = q.keys[j]
			found++
		}
	}
	if found < 2 && end < len(q.keys) {
		// The live items past slot end are the (r+1)-th, (r+2)-th, ...
		for r := q.treePrefix(end); found < 2 && r < q.live; found++ {
			r++
			k[found] = q.keys[q.treeKth(r)]
		}
	}
	return k[0], k[1]
}

// NewestTwoBelow returns the keys of the two newest live items with key
// < hi, newest first, reading −Inf for each that does not exist.  It
// walks at most scanSlots slots down from hi's slot before falling back
// to the Fenwick tree.
func (q *Queue[T]) NewestTwoBelow(hi float64) (k1, k2 float64) {
	k := [2]float64{math.Inf(-1), math.Inf(-1)}
	if q.live == 0 {
		return k[0], k[1]
	}
	j := q.lowerBound(q.head, hi) // slots [head, j) hold the keys < hi
	stop := max(j-scanSlots, q.head)
	found := 0
	for i := j - 1; i >= stop && found < 2; i-- {
		if !q.dead[i] {
			k[found] = q.keys[i]
			found++
		}
	}
	if found < 2 && stop > q.head {
		// The live items below slot stop are the r-th, (r−1)-th, ...
		for r := q.treePrefix(stop); found < 2 && r > 0; found++ {
			k[found] = q.keys[q.treeKth(r)]
			r--
		}
	}
	return k[0], k[1]
}

// PopFirstIn removes and returns the oldest live item with key in
// [lo, hi).
func (q *Queue[T]) PopFirstIn(lo, hi float64) (key float64, item T, ok bool) {
	idx := q.firstIn(lo, hi)
	if idx < 0 {
		var zero T
		return 0, zero, false
	}
	q.dead[idx] = true
	q.treeAdd(idx, -1)
	q.live--
	if idx == q.head {
		q.skipDead()
	}
	return q.keys[idx], q.items[idx], true
}

// DiscardBelow removes every live item with key < horizon — necessarily
// a prefix — calling fn (if non-nil) on each in arrival order, and
// returns how many were discarded.
func (q *Queue[T]) DiscardBelow(horizon float64, fn func(key float64, item T)) int {
	n := 0
	for q.head < len(q.keys) && q.keys[q.head] < horizon {
		h := q.head
		q.dead[h] = true
		q.treeAdd(h, -1)
		q.live--
		n++
		if fn != nil {
			fn(q.keys[h], q.items[h])
		}
		q.skipDead()
	}
	return n
}

// skipDead moves head from a slot just killed to the next live slot, or
// to len(keys) when none is left.  Each slot is passed once between
// compactions, so the cost is amortized O(1) per removal.
func (q *Queue[T]) skipDead() {
	for q.head++; q.head < len(q.keys) && q.dead[q.head]; q.head++ {
	}
}

// ForEach calls fn on every live item in arrival order.
func (q *Queue[T]) ForEach(fn func(key float64, item T)) {
	for i := q.head; i < len(q.keys); i++ {
		if !q.dead[i] {
			fn(q.keys[i], q.items[i])
		}
	}
}

// Reset empties the queue, retaining its capacity.
func (q *Queue[T]) Reset() {
	var zero T
	for i := range q.items {
		q.items[i] = zero
	}
	q.keys = q.keys[:0]
	q.items = q.items[:0]
	q.dead = q.dead[:0]
	clear(q.tree)
	q.head = 0
	q.live = 0
}
