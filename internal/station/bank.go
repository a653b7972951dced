package station

import (
	"fmt"
	"math"
	"sync"

	"windowctl/internal/rngutil"
)

// Bank is a whole station population's arrival streams in
// struct-of-arrays form: flat, index-parallel slices of per-station
// arrival state, in place of a slice of stream objects.  It keeps one
// xoshiro stream, one next-arrival time and (when sources are
// heterogeneous) one ArrivalProcess per station, and merges the M
// streams into a single global arrival order in epochs, which Next
// hands out one arrival at a time.  An epoch is one pass over the
// stations in index order that draws every arrival before the epoch's
// end, each station's gaps drawn back to back from its own stream,
// followed by a counting sort of the drawn arrivals into
// (time, station) order.  The caller queues what it takes.
//
// Per-station memory is 56 bytes (stream 48, nextAt 8), so a million
// stations fit in ~56 MB with zero per-station allocations.  The epoch
// buffers on top are bounded and allocated once: an epoch aims at no
// more than max(M/32, 1024) arrivals, and the two arrival buffers and
// the bucket offsets hold 1.25 times that at 36 bytes an arrival, about
// 1.4 bytes per station at a million.
//
// Stream identity is positional: station i draws from
// rngutil.Seeded(rngutil.ChildSeed(seed, i+1)), the exact stream the i-th
// Spawn of a root New(seed) yields.  Because child identity is a pure
// function of (seed, i), initialization shards across any number of
// workers bit-identically.
type Bank struct {
	rate    float64          // uniform Poisson rate, used when procs is nil
	procs   []ArrivalProcess // per-station sources; nil for uniform Poisson
	streams []rngutil.Stream
	nextAt  []float64 // first arrival per station not yet drawn into an epoch

	// The current epoch: ep holds every arrival drawn so far in
	// (time, station) order, and ep[pos:] are not yet taken.
	// minNext, the minimum nextAt, lies past all of them; the next epoch
	// starts there.  span is the next epoch's width, aimed at target
	// arrivals; target doubles per epoch up to maxTarget.
	ep         []arrival
	pos        int
	minNext    float64
	span       float64
	target     int
	maxTarget  int
	drawn      []arrival // the epoch pass's output, in station order
	bucketNext []int32   // counting-sort bucket offsets
}

// arrival is one drawn arrival of an epoch.
type arrival struct {
	at float64
	s  int32
}

// Epoch sizing: the first epoch aims at min(M, epochFirst) arrivals and
// each next one at twice as many, up to max(M/epochCapDiv, epochFirst).
// The cap bounds the epoch buffers at a small fraction of the per-station
// state; growing toward it keeps short runs from drawing far past their
// end.
const (
	epochFirst  = 1024
	epochCapDiv = 32
)

// NewBank creates the population.  Station i's arrivals come from
// arrivals(i) when the factory is non-nil (it is called sequentially in
// index order, so stateful factories are safe) and from Poisson(rate)
// otherwise.  workers shards the stream seeding and first-gap draws;
// any value produces identical state (<= 1 runs inline).
func NewBank(n int, seed uint64, rate float64, arrivals func(int) ArrivalProcess, workers int) (*Bank, error) {
	if n < 1 {
		return nil, fmt.Errorf("station: need >= 1 station, got %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("station: %d stations exceed the int32 index space", n)
	}
	b := &Bank{
		rate:      rate,
		streams:   make([]rngutil.Stream, n),
		nextAt:    make([]float64, n),
		target:    min(n, epochFirst),
		maxTarget: max(n/epochCapDiv, epochFirst),
	}
	// The epoch buffers fit a capped epoch with room to spare, so one
	// that overshoots its aim by chance allocates nothing.
	size := b.maxTarget + b.maxTarget/4
	b.drawn = make([]arrival, 0, size)
	b.ep = make([]arrival, 0, size)
	b.bucketNext = make([]int32, size+1)
	if arrivals != nil {
		b.procs = make([]ArrivalProcess, n)
		for i := range b.procs {
			p := arrivals(i)
			if p == nil {
				return nil, fmt.Errorf("station: arrival factory returned nil for station %d", i)
			}
			b.procs[i] = p
		}
	}
	if workers > n {
		workers = n
	}
	init := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b.streams[i] = rngutil.Seeded(rngutil.ChildSeed(seed, uint64(i)+1))
			b.nextAt[i] = b.gap(i)
		}
	}
	if workers <= 1 {
		init(0, n)
	} else {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				init(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	// The first epoch starts at the earliest arrival and spans the time
	// in which the stations that fire at all would give target arrivals,
	// each at the rate the mean of their first gaps implies.
	b.minNext = math.Inf(1)
	var sum float64
	var finite int
	for _, at := range b.nextAt {
		b.minNext = min(b.minNext, at)
		if !math.IsInf(at, 1) {
			sum += at
			finite++
		}
	}
	if finite > 0 {
		b.span = float64(b.target) * sum / float64(finite) / float64(finite)
	}
	return b, nil
}

// gap draws station i's next inter-arrival gap.
func (b *Bank) gap(i int) float64 {
	var g float64
	if b.procs == nil {
		g = b.streams[i].Exp(b.rate)
	} else {
		g = b.procs[i].NextGap(&b.streams[i])
	}
	if g <= 0 {
		panic("station: arrival process returned non-positive gap")
	}
	return g
}

// nextEpoch replaces the used-up epoch with the next one, which starts
// at the earliest undrawn arrival and so is never empty.  It reports
// false, changing nothing, when every station has gone silent.
func (b *Bank) nextEpoch() bool {
	lo := b.minNext
	if math.IsInf(lo, 1) {
		return false
	}
	end := lo + b.span
	if !(end > lo) {
		end = math.Nextafter(lo, math.Inf(1))
	}

	// The pass, in station order: stream access is sequential, and equal
	// times end up in station order, the tie order the sort keeps.
	drawn := b.drawn[:0]
	next := math.Inf(1)
	for i, at := range b.nextAt {
		if at < end {
			for at < end {
				drawn = append(drawn, arrival{at, int32(i)})
				at += b.gap(i)
			}
			b.nextAt[i] = at
		}
		if at < next {
			next = at
		}
	}
	b.drawn = drawn

	// A stable counting sort into len(drawn) equal-width time buckets,
	// then an insertion pass to order each bucket.  Arrivals inside an
	// epoch are close to uniform in time, so both are O(len(drawn)).
	c := len(drawn)
	perUnit := float64(c) / (end - lo)
	bucket := func(at float64) int {
		f := (at - lo) * perUnit
		switch {
		case f >= float64(c):
			return c - 1
		case f > 0:
			return int(f)
		}
		return 0
	}
	if len(b.bucketNext) < c+1 {
		b.bucketNext = make([]int32, c+1)
		b.ep = make([]arrival, c)
	}
	offs := b.bucketNext[:c+1]
	clear(offs)
	for _, a := range drawn {
		offs[bucket(a.at)+1]++
	}
	for k := 1; k < c; k++ {
		offs[k] += offs[k-1]
	}
	ep := b.ep[:c]
	for _, a := range drawn {
		k := bucket(a.at)
		ep[offs[k]] = a
		offs[k]++
	}
	for i := 1; i < c; i++ {
		a := ep[i]
		j := i
		for ; j > 0 && ep[j-1].at > a.at; j-- {
			ep[j] = ep[j-1]
		}
		ep[j] = a
	}

	b.ep, b.pos, b.minNext = ep, 0, next
	b.target = min(2*b.target, b.maxTarget)
	b.span = (end - lo) * float64(b.target) / float64(c)
	return true
}

// Next removes the population's next arrival and returns its time and
// origin station, in global (time, station) order; once every station
// has gone silent it returns (+Inf, -1).  An arrival costs O(1)
// amortized: its share of one epoch's pass over the M stations, about
// M/target station checks, and of the epoch's counting sort.
func (b *Bank) Next() (at float64, origin int32) {
	if b.pos == len(b.ep) && !b.nextEpoch() {
		return math.Inf(1), -1
	}
	a := b.ep[b.pos]
	b.pos++
	return a.at, a.s
}
