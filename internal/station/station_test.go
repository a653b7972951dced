package station

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

// Poisson is a Poisson arrival process with the given rate: the
// reference source of the station and bank tests.
type Poisson struct{ Rate float64 }

// NextGap implements ArrivalProcess.
func (p Poisson) NextGap(r *rngutil.Stream) float64 { return r.Exp(p.Rate) }

// String implements ArrivalProcess.
func (p Poisson) String() string { return fmt.Sprintf("Poisson(rate=%g)", p.Rate) }

// newStation returns station 0 holding the arrivals before until of a
// Poisson(rate) stream seeded with seed.
func newStation(seed uint64, rate, until float64) *Station {
	s := New(0)
	for _, at := range gapTimes(Poisson{Rate: rate}, rngutil.New(seed), until) {
		s.Push(at)
	}
	return s
}

// gapTimes returns the arrival times before until that proc's gaps,
// drawn from r, add up to.
func gapTimes(proc ArrivalProcess, r *rngutil.Stream, until float64) []float64 {
	var times []float64
	for at := proc.NextGap(r); at < until; at += proc.NextGap(r) {
		times = append(times, at)
	}
	return times
}

// TestPoissonGenerationRate checks the Bank's Poisson default: a single
// station of rate 2 gives about 2 arrivals per unit time.
func TestPoissonGenerationRate(t *testing.T) {
	b, err := NewBank(1, 1, 2.0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := newTaker(b).until(10000)
	if got := float64(n) / 10000; math.Abs(got-2) > 0.05 {
		t.Fatalf("generation rate %v, want 2", got)
	}
}

func TestCountAndPop(t *testing.T) {
	s := newStation(2, 1, 50)
	w := window.Window{Start: 10, End: 20}
	n := s.CountIn(w)
	// Cross-check by popping until empty.
	popped := 0
	for {
		m, ok := s.PopOldestIn(w)
		if !ok {
			break
		}
		if !w.Contains(m.Arrival) {
			t.Fatalf("popped %v outside window", m.Arrival)
		}
		if m.Origin != 0 {
			t.Fatalf("popped a message of station %d from station 0", m.Origin)
		}
		popped++
	}
	if popped != n {
		t.Fatalf("CountIn=%d but popped %d", n, popped)
	}
	if s.CountIn(w) != 0 {
		t.Fatal("window still non-empty after draining")
	}
}

func TestPopOldestOrder(t *testing.T) {
	s := newStation(3, 1, 30)
	w := window.Window{Start: 0, End: 30}
	prev := -1.0
	for {
		m, ok := s.PopOldestIn(w)
		if !ok {
			break
		}
		if m.Arrival < prev {
			t.Fatal("pop order not ascending")
		}
		prev = m.Arrival
	}
}

func TestDiscardArrivedBefore(t *testing.T) {
	s := newStation(4, 1, 40)
	total := s.QueueLen()
	var dropped []Message
	collect := func(m Message) { dropped = append(dropped, m) }
	n := s.DiscardArrivedBeforeFunc(20, collect)
	if n != len(dropped) {
		t.Fatalf("discard reported %d messages but passed %d to fn", n, len(dropped))
	}
	for _, m := range dropped {
		if m.Arrival >= 20 {
			t.Fatalf("dropped fresh message at %v", m.Arrival)
		}
	}
	if s.QueueLen()+len(dropped) != total {
		t.Fatal("messages lost in discard")
	}
	if s.CountIn(window.Window{Start: 0, End: 20}) != 0 {
		t.Fatal("old message survived discard")
	}
	// Idempotent.
	if s.DiscardArrivedBeforeFunc(20, collect) != 0 {
		t.Fatal("second discard dropped messages")
	}
}

func TestOnOffMeanRate(t *testing.T) {
	o := &OnOff{OnRate: 50, MeanOn: 1.0, MeanOff: 1.5}
	want := 50 * 1.0 / 2.5
	got := float64(len(gapTimes(o, rngutil.New(11), 5000))) / 5000
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("on/off empirical rate %v, want %v", got, want)
	}
}

func TestOnOffBurstiness(t *testing.T) {
	// Index of dispersion of counts over short intervals must exceed 1
	// (Poisson would be ~1): the defining property of talkspurt traffic.
	o := &OnOff{OnRate: 40, MeanOn: 0.5, MeanOff: 2}
	w := 1.0 // counting window
	counts := make([]float64, 4000)
	for _, at := range gapTimes(o, rngutil.New(12), 4000) {
		counts[int(at/w)]++
	}
	mean, varsum := 0.0, 0.0
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	for _, c := range counts {
		varsum += (c - mean) * (c - mean)
	}
	iod := varsum / float64(len(counts)) / mean
	if iod < 1.5 {
		t.Fatalf("on/off index of dispersion %v, expected bursty (> 1.5)", iod)
	}
}

// TestConstructorPanics requires NewBank, which draws every station's
// first gap, to panic on a source that cannot give a positive one: an
// on/off source without parameters, or a non-positive gap.
func TestConstructorPanics(t *testing.T) {
	for i, proc := range []ArrivalProcess{&OnOff{}, everyGap(0), everyGap(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d (%v): expected panic", i, proc)
				}
			}()
			NewBank(2, 1, 0, func(int) ArrivalProcess { return proc }, 1)
		}()
	}
}

// Property: the queue is always sorted by arrival and CountIn is
// consistent with membership.
func TestQueueSortedProperty(t *testing.T) {
	f := func(seed uint64, horizon uint8) bool {
		s := newStation(seed, 1.5, float64(horizon%50)+1)
		prev := -1.0
		w := window.Window{Start: 0, End: 1e9}
		n := s.CountIn(w)
		if n != s.QueueLen() {
			return false
		}
		for {
			m, ok := s.PopOldestIn(w)
			if !ok {
				break
			}
			if m.Arrival < prev {
				return false
			}
			prev = m.Arrival
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
