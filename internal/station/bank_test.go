package station

// Bank-vs-reference oracle: the struct-of-arrays population must draw
// the exact arrival sequence that one stream per station, spawned from
// a root stream in index order, would, stream for stream and draw for
// draw.

import (
	"math"
	"sort"
	"testing"

	"windowctl/internal/rngutil"
)

type refArrival struct {
	at     float64
	origin int
}

// referenceArrivals draws every station's arrivals with time <= t from
// its own stream — the i-th root.Spawn() of a root New(seed), one
// process per station — and returns them in global (time, station)
// order.
func referenceArrivals(n int, seed uint64, rate float64, arrivals func(int) ArrivalProcess, t float64) []refArrival {
	root := rngutil.New(seed)
	var all []refArrival
	for i := 0; i < n; i++ {
		proc := ArrivalProcess(Poisson{Rate: rate})
		if arrivals != nil {
			proc = arrivals(i)
		}
		r := root.Spawn()
		for at := proc.NextGap(r); at <= t; at += proc.NextGap(r) {
			all = append(all, refArrival{at: at, origin: i})
		}
	}
	sort.Slice(all, func(x, y int) bool {
		if all[x].at != all[y].at {
			return all[x].at < all[y].at
		}
		return all[x].origin < all[y].origin
	})
	return all
}

// taker takes a bank's arrivals the way the engine does: it holds the
// next one and takes arrivals up to a time in bursts.
type taker struct {
	b    *Bank
	next refArrival
	got  []refArrival
}

func newTaker(b *Bank) *taker {
	tk := &taker{b: b}
	tk.advance()
	return tk
}

func (tk *taker) advance() {
	at, origin := tk.b.Next()
	tk.next = refArrival{at: at, origin: int(origin)}
}

// until takes every arrival with time <= at and returns how many.
func (tk *taker) until(at float64) int {
	n := 0
	for tk.next.at <= at {
		tk.got = append(tk.got, tk.next)
		tk.advance()
		n++
	}
	return n
}

func bankArrivals(t *testing.T, n int, seed uint64, rate float64, arrivals func(int) ArrivalProcess, workers int, until float64) []refArrival {
	t.Helper()
	b, err := NewBank(n, seed, rate, arrivals, workers)
	if err != nil {
		t.Fatal(err)
	}
	// Take in bursts so the due/not-due boundary logic is exercised, not
	// just one final sweep.
	tk := newTaker(b)
	for at := until / 8; at < until; at += until / 8 {
		tk.until(at)
	}
	tk.until(until)
	return tk.got
}

func sameArrivals(t *testing.T, got, want []refArrival) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("arrival count mismatch: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arrival %d mismatch: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBankMatchesStationsPoisson(t *testing.T) {
	const n, seed, until = 25, 41, 4000.0
	want := referenceArrivals(n, seed, 0.02, nil, until)
	if len(want) == 0 {
		t.Fatal("reference generated no arrivals; the oracle is vacuous")
	}
	sameArrivals(t, bankArrivals(t, n, seed, 0.02, nil, 1, until), want)
}

func TestBankMatchesStationsOnOff(t *testing.T) {
	const n, seed, until = 8, 43, 8000.0
	factory := func(int) ArrivalProcess {
		return &OnOff{OnRate: 0.05, MeanOn: 100, MeanOff: 300}
	}
	want := referenceArrivals(n, seed, 0, factory, until)
	if len(want) == 0 {
		t.Fatal("reference generated no arrivals; the oracle is vacuous")
	}
	sameArrivals(t, bankArrivals(t, n, seed, 0, factory, 1, until), want)
}

// everyGap is a constant-gap source: stations with commensurate gaps
// fire at exactly the same times.
type everyGap float64

func (g everyGap) NextGap(*rngutil.Stream) float64 { return float64(g) }
func (g everyGap) String() string                  { return "every" }

// TestBankMatchesStationsTies feeds exact time ties across stations:
// integer gaps 2, 3 and 4 add up exactly in float64, so every multiple
// of 12 is an arrival of all 36 stations at once.  They must come out
// in station order, as the (time, station) reference has them.
func TestBankMatchesStationsTies(t *testing.T) {
	const n, seed, until = 36, 59, 3000.0
	factory := func(i int) ArrivalProcess { return everyGap(2 + i%3) }
	want := referenceArrivals(n, seed, 0, factory, until)
	got := bankArrivals(t, n, seed, 0, factory, 1, until)
	ties := 0
	for i := 1; i < len(got); i++ {
		prev, cur := got[i-1], got[i]
		if cur.at < prev.at || cur.at == prev.at && cur.origin <= prev.origin {
			t.Fatalf("arrivals[%d..%d] = %+v, %+v, want (time, station) order", i-1, i, prev, cur)
		}
		if cur.at == prev.at {
			ties++
		}
	}
	if ties < len(got)/2 {
		t.Fatalf("ties = %d of %d arrivals, want at least half; the case is vacuous", ties, len(got))
	}
	sameArrivals(t, got, want)
}

// TestBankMatchesStationsEpochs takes arrivals across the epoch size's
// doubling and several capped epochs in uneven bursts, some of which stop
// exactly where one epoch ends and the next begins: on the current
// epoch's last drawn arrival, then on the next epoch's first.  After every
// burst exactly the reference arrivals due must have been taken.
// The dense population doubles its epoch from 64 to 1024 arrivals and
// draws from every station in every epoch; in the sparse one an epoch
// touches about one station in eight.
func TestBankMatchesStationsEpochs(t *testing.T) {
	cases := []struct {
		name        string
		n           int
		rate, until float64
	}{
		{"dense", 64, 0.05, 2500},
		{"sparse", 8192, 5e-4, 2000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const seed = 61
			want := referenceArrivals(c.n, seed, c.rate, nil, c.until)
			b, err := NewBank(c.n, seed, c.rate, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			tk := newTaker(b)
			var epochs, capped, boundaries int
			prev := b.minNext
			stop := func(at float64) {
				tk.until(at)
				due := sort.Search(len(want), func(i int) bool { return want[i].at > at })
				if got := len(tk.got); got != due {
					t.Fatalf("took %d arrivals up to %v, want %d", got, at, due)
				}
				if b.minNext != prev {
					prev = b.minNext
					epochs++
					if b.target == b.maxTarget {
						capped++
					}
				}
			}
			// Steps run from half a mean inter-arrival time to ~100.
			unit := 1 / (float64(c.n) * c.rate)
			for step, at := 1.0, 0.0; at < c.until; step = math.Mod(step*7.3, 97) + 0.5 {
				at = math.Min(at+step*unit, c.until)
				stop(at)
				if step < 40 || b.pos == len(b.ep) {
					continue
				}
				// The taker holds one arrival of the current epoch, so
				// stopping on its last one leaves it holding the next
				// epoch's first.
				if last := b.ep[len(b.ep)-1].at; last <= c.until && b.minNext <= c.until {
					stop(last)
					at = tk.next.at
					stop(at)
					boundaries++
				}
			}
			if capped < 2 || boundaries < 2 {
				t.Fatalf("epochs = %d, capped = %d, boundary stops = %d, want >= 2 of each of the last two; the case is vacuous",
					epochs, capped, boundaries)
			}
			sameArrivals(t, tk.got, want)
		})
	}
}

// silentAfter gives its gap k times, then +Inf: the station goes silent.
type silentAfter struct {
	gap float64
	k   int
}

func (s *silentAfter) NextGap(r *rngutil.Stream) float64 {
	if s.k == 0 {
		return math.Inf(1)
	}
	s.k--
	return s.gap * (0.5 + r.Float64())
}

func (s *silentAfter) String() string { return "silent-after" }

// TestBankMatchesStationsSilent runs a population in which one station
// goes silent among Poisson ones, then one in which every station does:
// taking must stop once all are silent, and Next must then say +Inf.
func TestBankMatchesStationsSilent(t *testing.T) {
	const seed, until = 67, 5000.0
	cases := []struct {
		name    string
		n       int
		factory func(int) ArrivalProcess
		silent  bool // every station falls silent before until
	}{
		{"one-silent", 9, func(i int) ArrivalProcess {
			if i == 4 {
				return &silentAfter{gap: 30, k: 5}
			}
			return Poisson{Rate: 0.02}
		}, false},
		{"all-silent", 9, func(i int) ArrivalProcess { return &silentAfter{gap: 40, k: 3 * i} }, true},
		{"silent-from-start", 5, func(int) ArrivalProcess { return &silentAfter{gap: 1} }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := referenceArrivals(c.n, seed, 0, c.factory, until)
			sameArrivals(t, bankArrivals(t, c.n, seed, 0, c.factory, 1, until), want)
			if !c.silent {
				return
			}
			b, err := NewBank(c.n, seed, 0, c.factory, 1)
			if err != nil {
				t.Fatal(err)
			}
			tk := newTaker(b)
			if got := tk.until(math.MaxFloat64); got != len(want) {
				t.Fatalf("took %d arrivals up to MaxFloat64, want %d", got, len(want))
			}
			if !math.IsInf(tk.next.at, 1) || tk.next.origin != -1 {
				t.Fatalf("next arrival once silent = %+v, want +Inf from station -1", tk.next)
			}
			if at, origin := b.Next(); !math.IsInf(at, 1) || origin != -1 {
				t.Fatalf("Next() = (%v, %d) again once silent, want (+Inf, -1)", at, origin)
			}
		})
	}
}

// TestBankWorkersBitIdentical pins the sharded initialization: child
// stream identity is positional, so any worker count must build the
// same population state and hence the same arrival sequence.
func TestBankWorkersBitIdentical(t *testing.T) {
	const n, seed, until = 100, 47, 2000.0
	want := bankArrivals(t, n, seed, 0.01, nil, 1, until)
	for _, workers := range []int{2, 7, 64, 200} {
		sameArrivals(t, bankArrivals(t, n, seed, 0.01, nil, workers, until), want)
	}
}

func TestBankRejectsBadInput(t *testing.T) {
	if _, err := NewBank(0, 1, 1, nil, 1); err == nil {
		t.Fatal("zero stations accepted")
	}
	if _, err := NewBank(4, 1, 1, func(int) ArrivalProcess { return nil }, 1); err == nil {
		t.Fatal("nil arrival process accepted")
	}
}

// TestBankNextZeroAlloc pins the epoch buffers' reuse: once the
// epoch size has reached its cap, taking arrivals across several epoch
// refills allocates nothing.
func TestBankNextZeroAlloc(t *testing.T) {
	const n, rate = 1 << 16, 1e-4 // a capped epoch spans about 310 slots
	b, err := NewBank(n, 71, rate, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	next, _ := b.Next()
	step := func() {
		now++
		for next <= now {
			next, _ = b.Next()
		}
	}
	// Warm up through the doubling and one capped epoch.
	for b.target < b.maxTarget {
		step()
	}
	for start := b.minNext; b.minNext == start; {
		step()
	}
	// One measured run of many steps, so that a single allocation in any
	// refill shows (AllocsPerRun divides by the run count).
	var epochs int
	allocs := testing.AllocsPerRun(1, func() {
		epochs = 0
		for i := 0; i < 1500; i++ {
			prev := b.minNext
			step()
			if b.minNext != prev {
				epochs++
			}
		}
	})
	if epochs < 3 {
		t.Fatalf("epoch refills = %d over the measured steps, want >= 3; the gate is vacuous", epochs)
	}
	if allocs != 0 {
		t.Fatalf("allocs over %d epoch refills = %v, want 0", epochs, allocs)
	}
}
