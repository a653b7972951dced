package pendq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// FirstIn returns the oldest live item with key in [lo, hi) without
// removing it: the tests' probe of firstIn, which PopFirstIn runs.
func (q *Queue[T]) FirstIn(lo, hi float64) (key float64, item T, ok bool) {
	idx := q.firstIn(lo, hi)
	if idx < 0 {
		var zero T
		return 0, zero, false
	}
	return q.keys[idx], q.items[idx], true
}

// refQueue is the naive sorted-slice reference model the optimized queue
// must agree with operation for operation.
type refQueue struct {
	keys  []float64
	items []int
}

func (r *refQueue) Len() int { return len(r.keys) }

func (r *refQueue) Push(key float64, item int) {
	r.keys = append(r.keys, key)
	r.items = append(r.items, item)
}

func (r *refQueue) CountIn(lo, hi float64) int {
	if hi <= lo {
		return 0
	}
	a := sort.SearchFloat64s(r.keys, lo)
	b := sort.SearchFloat64s(r.keys, hi)
	return b - a
}

// OldestTwoFrom and NewestTwoBelow read the reference's sorted keys
// directly, with ±Inf for missing ones.
func (r *refQueue) OldestTwoFrom(lo float64) (float64, float64) {
	a := sort.SearchFloat64s(r.keys, lo)
	k := [2]float64{math.Inf(1), math.Inf(1)}
	for i := 0; i < 2 && a+i < len(r.keys); i++ {
		k[i] = r.keys[a+i]
	}
	return k[0], k[1]
}

func (r *refQueue) NewestTwoBelow(hi float64) (float64, float64) {
	b := sort.SearchFloat64s(r.keys, hi)
	k := [2]float64{math.Inf(-1), math.Inf(-1)}
	for i := 0; i < 2 && b-1-i >= 0; i++ {
		k[i] = r.keys[b-1-i]
	}
	return k[0], k[1]
}

func (r *refQueue) PopFirstIn(lo, hi float64) (float64, int, bool) {
	i := sort.SearchFloat64s(r.keys, lo)
	if hi <= lo || i >= len(r.keys) || r.keys[i] >= hi {
		return 0, 0, false
	}
	k, it := r.keys[i], r.items[i]
	r.keys = append(r.keys[:i], r.keys[i+1:]...)
	r.items = append(r.items[:i], r.items[i+1:]...)
	return k, it, true
}

func (r *refQueue) FirstIn(lo, hi float64) (float64, int, bool) {
	i := sort.SearchFloat64s(r.keys, lo)
	if hi <= lo || i >= len(r.keys) || r.keys[i] >= hi {
		return 0, 0, false
	}
	return r.keys[i], r.items[i], true
}

func (r *refQueue) DiscardBelow(horizon float64, fn func(float64, int)) int {
	cut := sort.SearchFloat64s(r.keys, horizon)
	for i := 0; i < cut; i++ {
		if fn != nil {
			fn(r.keys[i], r.items[i])
		}
	}
	r.keys = append(r.keys[:0], r.keys[cut:]...)
	r.items = append(r.items[:0], r.items[cut:]...)
	return cut
}

type pair struct {
	k float64
	v int
}

func (r *refQueue) All() []pair {
	out := []pair{}
	for i := range r.keys {
		out = append(out, pair{r.keys[i], r.items[i]})
	}
	return out
}

func allOf(q *Queue[int]) []pair {
	out := []pair{}
	q.ForEach(func(k float64, v int) { out = append(out, pair{k, v}) })
	return out
}

func equalPairs(a, b []pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// driveAgainstReference interleaves a random operation sequence over both
// implementations and fails on the first disagreement.
func driveAgainstReference(t *testing.T, rng *rand.Rand, steps int) {
	t.Helper()
	var q Queue[int]
	var ref refQueue
	lastKey := 0.0
	horizon := 0.0
	nextItem := 0

	window := func() (float64, float64) {
		// Windows biased to the populated key range, including empty and
		// out-of-range ones.
		span := lastKey - horizon + 1
		lo := horizon + (rng.Float64()*1.4-0.2)*span
		w := rng.Float64() * span * 0.5
		return lo, lo + w
	}

	for s := 0; s < steps; s++ {
		switch op := rng.Intn(10); {
		case op < 4: // push, occasionally with duplicate keys
			gap := rng.ExpFloat64()
			if rng.Intn(8) == 0 {
				gap = 0
			}
			lastKey += gap
			q.Push(lastKey, nextItem)
			ref.Push(lastKey, nextItem)
			nextItem++
		case op < 6: // count
			lo, hi := window()
			if got, want := q.CountIn(lo, hi), ref.CountIn(lo, hi); got != want {
				t.Fatalf("step %d: CountIn(%v,%v) = %d, reference %d", s, lo, hi, got, want)
			}
			g1, g2 := q.OldestTwoFrom(lo)
			w1, w2 := ref.OldestTwoFrom(lo)
			if g1 != w1 || g2 != w2 {
				t.Fatalf("step %d: OldestTwoFrom(%v) = (%v,%v), reference (%v,%v)", s, lo, g1, g2, w1, w2)
			}
			g1, g2 = q.NewestTwoBelow(hi)
			w1, w2 = ref.NewestTwoBelow(hi)
			if g1 != w1 || g2 != w2 {
				t.Fatalf("step %d: NewestTwoBelow(%v) = (%v,%v), reference (%v,%v)", s, hi, g1, g2, w1, w2)
			}
		case op < 8: // pop (and peek) oldest in window
			lo, hi := window()
			pk, pv, pok := q.FirstIn(lo, hi)
			rk, rv, rok := ref.FirstIn(lo, hi)
			if pok != rok || pk != rk || pv != rv {
				t.Fatalf("step %d: FirstIn(%v,%v) = (%v,%v,%v), reference (%v,%v,%v)", s, lo, hi, pk, pv, pok, rk, rv, rok)
			}
			gk, gv, gok := q.PopFirstIn(lo, hi)
			wk, wv, wok := ref.PopFirstIn(lo, hi)
			if gok != wok || gk != wk || gv != wv {
				t.Fatalf("step %d: PopFirstIn(%v,%v) = (%v,%v,%v), reference (%v,%v,%v)", s, lo, hi, gk, gv, gok, wk, wv, wok)
			}
		case op < 9: // advance the discard horizon
			horizon += rng.ExpFloat64() * 2
			var got, want []pair
			n := q.DiscardBelow(horizon, func(k float64, v int) { got = append(got, pair{k, v}) })
			m := ref.DiscardBelow(horizon, func(k float64, v int) { want = append(want, pair{k, v}) })
			if n != m || !equalPairs(got, want) {
				t.Fatalf("step %d: DiscardBelow(%v) = %d %v, reference %d %v", s, horizon, n, got, m, want)
			}
		default: // full-state audit
			if q.Len() != ref.Len() {
				t.Fatalf("step %d: Len = %d, reference %d", s, q.Len(), ref.Len())
			}
			if !equalPairs(allOf(&q), ref.All()) {
				t.Fatalf("step %d: ForEach disagrees\n got  %v\n want %v", s, allOf(&q), ref.All())
			}
		}
	}
	if !equalPairs(allOf(&q), ref.All()) {
		t.Fatalf("final state disagrees\n got  %v\n want %v", allOf(&q), ref.All())
	}
}

func TestQueueAgainstReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		driveAgainstReference(t, rng, 2000)
	}
}

func TestQueueLongRunCompaction(t *testing.T) {
	// A long churn run: pushes race a steadily advancing horizon, forcing
	// many in-place compactions while the live set stays small.
	var q Queue[int]
	var ref refQueue
	rng := rand.New(rand.NewSource(7))
	key, horizon := 0.0, 0.0
	for i := 0; i < 200000; i++ {
		key += rng.ExpFloat64()
		q.Push(key, i)
		ref.Push(key, i)
		if i%3 == 0 {
			horizon = key - 5
			q.DiscardBelow(horizon, nil)
			ref.DiscardBelow(horizon, nil)
		}
		if i%7 == 0 {
			lo := key - 4
			gk, gv, gok := q.PopFirstIn(lo, key)
			wk, wv, wok := ref.PopFirstIn(lo, key)
			if gok != wok || gk != wk || gv != wv {
				t.Fatalf("i=%d: pop (%v,%v,%v) vs (%v,%v,%v)", i, gk, gv, gok, wk, wv, wok)
			}
		}
	}
	if q.Len() != ref.Len() || !equalPairs(allOf(&q), ref.All()) {
		t.Fatalf("final state disagrees: len %d vs %d", q.Len(), ref.Len())
	}
	if c := cap(q.keys); c > 4096 {
		t.Fatalf("buffer grew to %d for a ~15-element live set — compaction not reclaiming", c)
	}
}

func TestQueueMonotonicityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order push did not panic")
		}
	}()
	var q Queue[int]
	q.Push(2, 0)
	q.Push(1, 1)
}

func TestQueueReset(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(float64(i), i)
	}
	q.Reset()
	if q.Len() != 0 || q.CountIn(0, 1000) != 0 {
		t.Fatalf("reset queue not empty: len=%d", q.Len())
	}
	q.Push(0.5, 1)
	if q.CountIn(0, 1) != 1 {
		t.Fatal("push after reset lost")
	}
}

// TestQueueSteadyStateZeroAlloc verifies the queue's own allocation
// contract: once the buffer has grown past the peak live backlog, the
// push/count/pop/discard cycle never allocates.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	var q Queue[int]
	key := 0.0
	// Warm to a stable capacity at ~64 live items.
	for i := 0; i < 10000; i++ {
		key++
		q.Push(key, i)
		if q.Len() > 64 {
			q.DiscardBelow(key-64, nil)
		}
	}
	avg := testing.AllocsPerRun(5000, func() {
		key++
		q.Push(key, 0)
		if q.CountIn(key-10, key+1) < 1 {
			t.Fatal("lost the just-pushed item")
		}
		q.PopFirstIn(key-3, key+1)
		q.DiscardBelow(key-64, nil)
	})
	if avg != 0 {
		t.Fatalf("steady-state cycle allocates %v times per run", avg)
	}
}

// FuzzQueueAgainstReferenceModel drives the op-sequence comparison from
// fuzzer-chosen seeds.
func FuzzQueueAgainstReferenceModel(f *testing.F) {
	f.Add(int64(1), uint16(500))
	f.Add(int64(99), uint16(1500))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		rng := rand.New(rand.NewSource(seed))
		driveAgainstReference(t, rng, int(steps%4096))
	})
}

func TestQueueNaNRejected(t *testing.T) {
	// A NaN key would slip past the monotonicity check (NaN < x and
	// x < NaN are both false) and poison every later binary search, so
	// Push rejects it explicitly.
	defer func() {
		if recover() == nil {
			t.Fatal("NaN key did not panic")
		}
	}()
	var q Queue[int]
	q.Push(1, 0)
	q.Push(math.NaN(), 1)
}

// fill pushes keys 0, 1, …, n−1, each carrying its own key as the item.
func fill(q *Queue[int], n int) {
	for i := 0; i < n; i++ {
		q.Push(float64(i), i)
	}
}

// TestQueueScanBoundWindows probes windows of exactly scanSlots slots and
// of one slot more.  The first is answered by the scan alone, which runs
// out of slots just as the window ends; the second needs the Fenwick
// fallback for its last slot.  A fallback that dropped that slot reads
// scanSlots for the longer window; one that recounted the scanned slots
// reads 2·scanSlots+1.
func TestQueueScanBoundWindows(t *testing.T) {
	var q Queue[int]
	fill(&q, 4*scanSlots)
	for _, tc := range []struct {
		name string
		hi   float64
		want int
	}{
		{"exactly the bound", scanSlots, scanSlots},
		{"one slot past the bound", scanSlots + 1, scanSlots + 1},
	} {
		if got := q.CountIn(0, tc.hi); got != tc.want {
			t.Errorf("%s: CountIn(0, %v) = %d, want %d", tc.name, tc.hi, got, tc.want)
		}
	}
	// With the first scanSlots items gone (but not from the head), the
	// only live item of [1, scanSlots+2) sits one slot past the bound.
	for k := 1; k <= scanSlots; k++ {
		if _, v, ok := q.PopFirstIn(float64(k), float64(k+1)); !ok || v != k {
			t.Fatalf("setup: pop of key %d = (%d, %v)", k, v, ok)
		}
	}
	if _, v, ok := q.FirstIn(1, scanSlots+2); !ok || v != scanSlots+1 {
		t.Errorf("FirstIn(1, %d) = (%d, %v), want (%d, true): the scan gave up at its bound", scanSlots+2, v, ok, scanSlots+1)
	}
	if _, _, ok := q.FirstIn(1, scanSlots+1); ok {
		t.Errorf("FirstIn(1, %d) found an item in a window of dead slots", scanSlots+1)
	}
}

// TestQueueDeadRunInsideWindow puts a run of 3·scanSlots dead slots
// between the window's start and its live items.  A scan that stopped at
// its bound without falling back would report 0 items and no first item.
func TestQueueDeadRunInsideWindow(t *testing.T) {
	var q Queue[int]
	n := 5 * scanSlots
	fill(&q, n)
	run := 3 * scanSlots
	for k := 1; k <= run; k++ {
		q.PopFirstIn(float64(k), float64(k+1))
	}
	hi := float64(run + 5)
	if got := q.CountIn(0.5, hi); got != 4 {
		t.Errorf("CountIn(0.5, %v) = %d, want 4 (keys %d..%d past the dead run)", hi, got, run+1, run+4)
	}
	if _, v, ok := q.FirstIn(0.5, hi); !ok || v != run+1 {
		t.Errorf("FirstIn(0.5, %v) = (%d, %v), want (%d, true)", hi, v, ok, run+1)
	}
	if got := q.CountIn(0, hi); got != 5 {
		t.Errorf("CountIn(0, %v) = %d, want 5 (key 0 and the four past the run)", hi, got)
	}
	// The two-key queries cross the same run from either side: a scan
	// that gave up at its bound would read ±Inf, one that recounted the
	// scanned slots would skip a key.
	if k1, k2 := q.OldestTwoFrom(0.5); k1 != float64(run+1) || k2 != float64(run+2) {
		t.Errorf("OldestTwoFrom(0.5) = (%v, %v), want (%d, %d)", k1, k2, run+1, run+2)
	}
	if k1, k2 := q.NewestTwoBelow(float64(run + 1)); k1 != 0 || k2 != math.Inf(-1) {
		t.Errorf("NewestTwoBelow(%d) = (%v, %v), want (0, -Inf)", run+1, k1, k2)
	}
	if k1, k2 := q.NewestTwoBelow(float64(run + 2)); k1 != float64(run+1) || k2 != 0 {
		t.Errorf("NewestTwoBelow(%d) = (%v, %v), want (%d, 0)", run+2, k1, k2, run+1)
	}
}

// TestQueueWindowBelowHead starts windows below the oldest live item,
// where the search must answer with the head itself.
func TestQueueWindowBelowHead(t *testing.T) {
	var q Queue[int]
	fill(&q, 10)
	q.DiscardBelow(5, nil)
	if got := q.CountIn(-10, 7); got != 2 {
		t.Errorf("CountIn(-10, 7) = %d, want 2 (keys 5 and 6)", got)
	}
	if _, v, ok := q.FirstIn(2, 7); !ok || v != 5 {
		t.Errorf("FirstIn(2, 7) = (%d, %v), want (5, true)", v, ok)
	}
	if _, v, ok := q.PopFirstIn(0, 5); ok {
		t.Errorf("PopFirstIn(0, 5) popped discarded key %d", v)
	}
	if got := q.CountIn(math.Inf(-1), math.Inf(1)); got != 5 {
		t.Errorf("CountIn(-Inf, +Inf) = %d, want 5", got)
	}
}

// TestQueueEmptiedThenRefilled empties the queue through both removal
// paths and refills it: the buffer keeps its slots, head waits at its
// end, and the refilled items are found.
func TestQueueEmptiedThenRefilled(t *testing.T) {
	for _, tc := range []struct {
		name  string
		empty func(q *Queue[int])
	}{
		{"PopFirstIn", func(q *Queue[int]) {
			for q.Len() > 0 {
				q.PopFirstIn(math.Inf(-1), math.Inf(1))
			}
		}},
		{"DiscardBelow", func(q *Queue[int]) { q.DiscardBelow(100, nil) }},
	} {
		var q Queue[int]
		fill(&q, 10)
		tc.empty(&q)
		if q.Len() != 0 || q.head != len(q.keys) {
			t.Fatalf("%s: emptied queue has len %d, head %d of %d slots; want 0 and head at the end", tc.name, q.Len(), q.head, len(q.keys))
		}
		if got := q.CountIn(math.Inf(-1), math.Inf(1)); got != 0 {
			t.Errorf("%s: CountIn on the emptied queue = %d, want 0", tc.name, got)
		}
		q.Push(20, 20)
		q.Push(21, 21)
		if got := q.CountIn(0, 100); got != 2 {
			t.Errorf("%s: CountIn(0, 100) after refill = %d, want 2", tc.name, got)
		}
		if _, v, ok := q.PopFirstIn(0, 100); !ok || v != 20 {
			t.Errorf("%s: PopFirstIn(0, 100) after refill = (%d, %v), want (20, true)", tc.name, v, ok)
		}
		if _, v, ok := q.FirstIn(0, 100); !ok || v != 21 {
			t.Errorf("%s: FirstIn(0, 100) after the pop = (%d, %v), want (21, true)", tc.name, v, ok)
		}
	}
}

// TestQueueHeadOnOldestLive checks that both removal paths leave head on
// the oldest live slot, stepping over the dead slots that follow.
func TestQueueHeadOnOldestLive(t *testing.T) {
	var q Queue[int]
	fill(&q, 10)
	q.PopFirstIn(1, 3) // key 1
	q.PopFirstIn(1, 3) // key 2
	q.PopFirstIn(0, 1) // key 0, at head
	if q.head == 0 {
		t.Errorf("after popping the head: head = 0 (still on the popped slot), want 3")
	} else if q.head != 3 {
		t.Errorf("after popping the head: head = %d, want 3", q.head)
	}
	q.PopFirstIn(5, 6) // key 5, inside
	if q.head != 3 {
		t.Errorf("after popping an inner item: head = %d, want 3", q.head)
	}
	q.DiscardBelow(5, nil) // keys 3 and 4, then over dead key 5
	if q.head != 6 {
		t.Errorf("after DiscardBelow(5): head = %d (5 is the dead slot of key 5), want 6", q.head)
	}
	if _, v, ok := q.FirstIn(math.Inf(-1), math.Inf(1)); !ok || v != 6 {
		t.Errorf("oldest item = (%d, %v), want (6, true)", v, ok)
	}
}

// TestQueueSearchMatchesBisection compares the galloping lowerBound with
// sort.Search from every start slot, over keys with runs of duplicates.
func TestQueueSearchMatchesBisection(t *testing.T) {
	var q Queue[int]
	keys := []float64{0, 1, 1, 1, 2, 3, 5, 5, 8, 13, 13, 13, 13, 21, 34, 55, 89, 89, 144}
	for i, k := range keys {
		q.Push(k, i)
	}
	probes := []float64{math.Inf(-1), -1, 0, 0.5, 1, 1.5, 5, 6, 13, 20, 89, 100, 144, 145, math.Inf(1)}
	for from := 0; from <= len(keys); from++ {
		for _, x := range probes {
			want := from + sort.SearchFloat64s(keys[from:], x)
			if got := q.lowerBound(from, x); got != want {
				t.Errorf("lowerBound(%d, %v) = %d, want %d", from, x, got, want)
			}
		}
	}
}

// BenchmarkQueue probes a standing backlog of 400 live items with
// two-slot windows at either end.  One op is one push, one CountIn and
// one PopFirstIn of the item the window finds.
//
//   - oldest: the window sits on the oldest live items, as under the
//     controlled policy; the popped item is the head, and the backlog
//     occupies 400 consecutive slots.
//   - newest: the window sits on the newest items, as under LCFS; two
//     items are pushed per op, the newer survives, and DiscardBelow
//     holds the backlog at 400 live items spread over 800 slots, so a
//     search from the oldest live item travels the whole buffer.
func BenchmarkQueue(b *testing.B) {
	const backlog = 400
	b.Run("oldest", func(b *testing.B) {
		var q Queue[int]
		for i := 0; i < backlog; i++ {
			q.Push(float64(i), i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := backlog; i < backlog+b.N; i++ {
			q.Push(float64(i), i)
			lo := float64(i - backlog)
			if q.CountIn(lo, lo+2) != 2 {
				b.Fatalf("op %d: oldest window lost its items", i)
			}
			q.PopFirstIn(lo, lo+2)
		}
		b.StopTimer()
		if q.Len() != backlog {
			b.Fatalf("ending backlog %d, want %d", q.Len(), backlog)
		}
	})
	b.Run("newest", func(b *testing.B) {
		var q Queue[int]
		for i := 0; i < 2*backlog; i += 2 {
			q.Push(float64(i+1), i+1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 2 * backlog; i < 2*backlog+2*b.N; i += 2 {
			q.Push(float64(i), i)
			q.Push(float64(i+1), i+1)
			lo := float64(i)
			if q.CountIn(lo, lo+2) != 2 {
				b.Fatalf("op %d: newest window lost its items", i)
			}
			q.PopFirstIn(lo, lo+2)
			q.DiscardBelow(float64(i+2-2*backlog), nil)
		}
		b.StopTimer()
		if q.Len() != backlog {
			b.Fatalf("ending backlog %d, want %d", q.Len(), backlog)
		}
	})
}
