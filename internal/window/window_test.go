package window

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"windowctl/internal/rngutil"
)

func TestWindowBasics(t *testing.T) {
	w := Window{2, 5}
	if w.Len() != 3 {
		t.Fatal("len")
	}
	if w.Empty() {
		t.Fatal("non-empty window reported empty")
	}
	if !w.Contains(2) || w.Contains(5) || !w.Contains(4.999) {
		t.Fatal("half-open membership wrong")
	}
	o, n := w.Split(0.5)
	if o.Start != 2 || o.End != 3.5 || n.Start != 3.5 || n.End != 5 {
		t.Fatalf("split: %v %v", o, n)
	}
	o, n = w.Split(1.0 / 3)
	if math.Abs(o.End-3) > 1e-12 || n.Start != o.End {
		t.Fatalf("fractional split: %v %v", o, n)
	}
	if (Window{3, 3}).Empty() != true {
		t.Fatal("zero-length window not empty")
	}
}

func TestWindowSplitPanics(t *testing.T) {
	for _, frac := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%v) did not panic", frac)
				}
			}()
			Window{0, 1}.Split(frac)
		}()
	}
}

// --- IntervalSet ------------------------------------------------------------

func TestIntervalSetAddCoalesce(t *testing.T) {
	var s IntervalSet
	s.Add(Window{1, 2})
	s.Add(Window{3, 4})
	if s.Len() != 2 {
		t.Fatalf("want 2 intervals, got %d", s.Len())
	}
	s.Add(Window{2, 3}) // bridges the gap
	if s.Len() != 1 {
		t.Fatalf("coalesce failed: %v", s.AppendTo(nil))
	}
	iv := s.AppendTo(nil)
	if iv[0].Start != 1 || iv[0].End != 4 {
		t.Fatalf("merged = %v", iv[0])
	}
	// Overlapping add.
	s.Add(Window{3.5, 6})
	iv = s.AppendTo(nil)
	if s.Len() != 1 || iv[0].End != 6 {
		t.Fatalf("overlap merge failed: %v", iv)
	}
	// Empty add is a no-op.
	s.Add(Window{7, 7})
	if s.Len() != 1 {
		t.Fatal("empty window added")
	}
}

func TestIntervalSetCovers(t *testing.T) {
	var s IntervalSet
	s.Add(Window{1, 2})
	s.Add(Window{4, 5})
	cases := map[float64]bool{0.5: false, 1: true, 1.99: true, 2: false, 3: false, 4.5: true, 5: false}
	for x, want := range cases {
		if got := s.Covers(x); got != want {
			t.Errorf("Covers(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestOldestUncovered(t *testing.T) {
	var s IntervalSet
	s.Add(Window{1, 2})
	s.Add(Window{4, 5})
	if p, ok := s.OldestUncovered(0, 10); !ok || p != 0 {
		t.Fatalf("oldest from 0: %v %v", p, ok)
	}
	if p, ok := s.OldestUncovered(1, 10); !ok || p != 2 {
		t.Fatalf("oldest from inside interval: %v %v", p, ok)
	}
	if p, ok := s.OldestUncovered(1.5, 10); !ok || p != 2 {
		t.Fatalf("oldest from 1.5: %v %v", p, ok)
	}
	if _, ok := s.OldestUncovered(1, 2); ok {
		t.Fatal("fully covered range reported uncovered point")
	}
	if _, ok := s.OldestUncovered(5, 5); ok {
		t.Fatal("empty range reported uncovered point")
	}
	// Chained coverage: [1,2) ∪ [2,3) behaves like [1,3).
	s.Add(Window{2, 3})
	if p, ok := s.OldestUncovered(1, 10); !ok || p != 3 {
		t.Fatalf("chained coverage: %v %v", p, ok)
	}
}

func TestNewestUncovered(t *testing.T) {
	var s IntervalSet
	s.Add(Window{1, 2})
	s.Add(Window{4, 5})
	if u, ok := s.NewestUncovered(0, 10); !ok || u != 10 {
		t.Fatalf("newest with free top: %v %v", u, ok)
	}
	if u, ok := s.NewestUncovered(0, 5); !ok || u != 4 {
		t.Fatalf("newest ending at covered top: %v %v", u, ok)
	}
	if u, ok := s.NewestUncovered(0, 4.5); !ok || u != 4 {
		t.Fatalf("newest inside covered top: %v %v", u, ok)
	}
	if _, ok := s.NewestUncovered(1, 2); ok {
		t.Fatal("fully covered range")
	}
	// Adjacent intervals at the top: [3,4) ∪ [4,5) from 5 slides to 3.
	s.Add(Window{3, 4})
	if u, ok := s.NewestUncovered(0, 5); !ok || u != 3 {
		t.Fatalf("adjacent slide: %v %v", u, ok)
	}
}

func TestTrimBelow(t *testing.T) {
	var s IntervalSet
	s.Add(Window{1, 3})
	s.Add(Window{5, 7})
	s.TrimBelow(2)
	iv := s.AppendTo(nil)
	if len(iv) != 2 || iv[0].Start != 2 || iv[0].End != 3 {
		t.Fatalf("trim partial: %v", iv)
	}
	s.TrimBelow(4)
	iv = s.AppendTo(nil)
	if len(iv) != 1 || iv[0].Start != 5 {
		t.Fatalf("trim whole interval: %v", iv)
	}
	s.TrimBelow(100)
	if s.Len() != 0 {
		t.Fatal("trim everything")
	}
}

func TestUncoveredMeasure(t *testing.T) {
	var s IntervalSet
	s.Add(Window{1, 2})
	s.Add(Window{3, 4})
	if m := s.UncoveredMeasure(0, 5); math.Abs(m-3) > 1e-12 {
		t.Fatalf("measure = %v, want 3", m)
	}
	if m := s.UncoveredMeasure(1, 2); m != 0 {
		t.Fatalf("covered measure = %v", m)
	}
	if m := s.UncoveredMeasure(5, 5); m != 0 {
		t.Fatal("empty range measure")
	}
	if m := s.UncoveredMeasure(1.5, 3.5); math.Abs(m-1) > 1e-12 {
		t.Fatalf("partial overlap measure = %v", m)
	}
}

func TestStartForUncoveredMeasure(t *testing.T) {
	var s IntervalSet
	s.Add(Window{4, 8}) // cleared gap in the middle
	// Uncovered within [0, 10): [0,4) and [8,10).
	// Newest 1 unit: [9, 10).
	if got := s.StartForUncoveredMeasure(0, 10, 1); math.Abs(got-9) > 1e-12 {
		t.Fatalf("1 unit: start %v, want 9", got)
	}
	// Newest 2 units: exactly the top gap.
	if got := s.StartForUncoveredMeasure(0, 10, 2); math.Abs(got-8) > 1e-12 {
		t.Fatalf("2 units: start %v, want 8", got)
	}
	// Newest 3 units: skip the cleared [4,8) and take [3,4) too.
	if got := s.StartForUncoveredMeasure(0, 10, 3); math.Abs(got-3) > 1e-12 {
		t.Fatalf("3 units: start %v, want 3", got)
	}
	// More than available (6 units): clamp to lo.
	if got := s.StartForUncoveredMeasure(0, 10, 100); got != 0 {
		t.Fatalf("oversize: start %v, want 0", got)
	}
	// Degenerate inputs.
	if got := s.StartForUncoveredMeasure(5, 5, 1); got != 5 {
		t.Fatal("empty range")
	}
	if got := s.StartForUncoveredMeasure(0, 10, 0); got != 10 {
		t.Fatal("zero measure")
	}
	// lo inside a gap below an interval.
	if got := s.StartForUncoveredMeasure(3.5, 10, 3); got != 3.5 {
		t.Fatalf("clamp at lo: %v", got)
	}
	// Interval covering hi exactly: cursor slides below it.
	var top IntervalSet
	top.Add(Window{6, 10})
	if got := top.StartForUncoveredMeasure(0, 10, 2); math.Abs(got-4) > 1e-12 {
		t.Fatalf("covered top: %v, want 4", got)
	}
}

// Property: the window returned by StartForUncoveredMeasure has exactly
// min(measure, available) uncovered mass.
func TestStartForUncoveredMeasureProperty(t *testing.T) {
	f := func(seed uint64, n uint8, rawMeasure uint8) bool {
		r := rngutil.New(seed)
		var s IntervalSet
		for i := 0; i < int(n%10); i++ {
			a := r.Float64() * 10
			s.Add(Window{a, a + r.Float64()*2})
		}
		lo, hi := 0.0, 10.0
		measure := float64(rawMeasure%80)/10 + 0.1
		start := s.StartForUncoveredMeasure(lo, hi, measure)
		if start < lo || start > hi {
			return false
		}
		got := s.UncoveredMeasure(start, hi)
		avail := s.UncoveredMeasure(lo, hi)
		want := math.Min(measure, avail)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: after arbitrary adds, intervals are sorted, disjoint, non-empty.
func TestIntervalSetInvariantProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rngutil.New(seed)
		var s IntervalSet
		for i := 0; i < int(n%40)+1; i++ {
			a := r.Float64() * 10
			s.Add(Window{a, a + r.Float64()*3})
		}
		iv := s.AppendTo(nil)
		for i, w := range iv {
			if w.Empty() {
				return false
			}
			if i > 0 && iv[i-1].End >= w.Start {
				return false // must be disjoint AND non-adjacent (coalesced)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Policies ----------------------------------------------------------------

func TestValidate(t *testing.T) {
	rng := rngutil.New(1)
	good := []Policy{
		Controlled{Length: FixedG(1)},
		Controlled{Length: FixedLength(2), Fraction: 0.3},
		FCFS{Length: FixedG(1)},
		LCFS{Length: FixedG(1)},
		Random{Length: FixedG(1), Rng: rng},
	}
	for _, p := range good {
		if err := Validate(p); err != nil {
			t.Errorf("%s: unexpected error %v", p.Name(), err)
		}
	}
	bad := []Policy{
		Controlled{},
		Controlled{Length: FixedG(1), Fraction: 1.5},
		FCFS{},
		LCFS{},
		Random{Length: FixedG(1)},
		Random{Rng: rng},
	}
	for i, p := range bad {
		if err := Validate(p); err == nil {
			t.Errorf("bad case %d (%s): validation passed", i, p.Name())
		}
	}
}

func TestLengthRules(t *testing.T) {
	v := View{Lambda: 2}
	if l := FixedG(3)(v); math.Abs(l-1.5) > 1e-12 {
		t.Fatalf("FixedG length %v", l)
	}
	if l := FixedG(3)(View{Lambda: 0}); !math.IsInf(l, 1) {
		t.Fatal("FixedG without rate should be unbounded")
	}
	if l := FixedLength(2.5)(v); l != 2.5 {
		t.Fatal("FixedLength")
	}
	for _, fn := range []func(){func() { FixedG(0) }, func() { FixedLength(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPolicyWindowPlacement(t *testing.T) {
	v := View{Now: 100, TPast: 90, TNewest: 100, K: 20, Tau: 1, Lambda: 1}
	// Controlled and FCFS anchor at TPast.
	cw := Controlled{Length: FixedLength(4)}.InitialWindow(v)
	if cw.Start != 90 || cw.End != 94 {
		t.Fatalf("controlled window %v", cw)
	}
	fw := FCFS{Length: FixedLength(4)}.InitialWindow(v)
	if fw.Start != 90 || fw.End != 94 {
		t.Fatalf("fcfs window %v", fw)
	}
	// LCFS anchors at TNewest.
	lw := LCFS{Length: FixedLength(4)}.InitialWindow(v)
	if lw.Start != 96 || lw.End != 100 {
		t.Fatalf("lcfs window %v", lw)
	}
	// LCFS clamps to TPast when the span is short.
	lw = LCFS{Length: FixedLength(40)}.InitialWindow(v)
	if lw.Start != 90 || lw.End != 100 {
		t.Fatalf("lcfs clamped window %v", lw)
	}
	// Random stays within the span.
	rp := Random{Length: FixedLength(4), Rng: rngutil.New(3)}
	for i := 0; i < 100; i++ {
		w := rp.InitialWindow(v)
		if w.Start < 90 || w.End > 100 || math.Abs(w.Len()-4) > 1e-9 {
			t.Fatalf("random window %v", w)
		}
	}
	// Random with oversize length takes the whole span.
	w := Random{Length: FixedLength(40), Rng: rngutil.New(3)}.InitialWindow(v)
	if w.Start != 90 || w.End != 100 {
		t.Fatalf("random oversize %v", w)
	}
}

func TestPolicySides(t *testing.T) {
	v := View{}
	w := Window{0, 1}
	if (Controlled{Length: FixedG(1)}).ChooseSide(v, w, 0) != Older {
		t.Fatal("controlled must pick older")
	}
	if (FCFS{Length: FixedG(1)}).ChooseSide(v, w, 0) != Older {
		t.Fatal("fcfs must pick older")
	}
	if (LCFS{Length: FixedG(1)}).ChooseSide(v, w, 0) != Newer {
		t.Fatal("lcfs must pick newer")
	}
	rp := Random{Length: FixedG(1), Rng: rngutil.New(4)}
	sawOlder, sawNewer := false, false
	for i := 0; i < 100; i++ {
		if rp.ChooseSide(v, w, 0) == Older {
			sawOlder = true
		} else {
			sawNewer = true
		}
	}
	if !sawOlder || !sawNewer {
		t.Fatal("random side never varied")
	}
}

func TestDiscardFlags(t *testing.T) {
	if !(Controlled{Length: FixedG(1)}).Discards() {
		t.Fatal("controlled must discard")
	}
	for _, p := range []Policy{FCFS{Length: FixedG(1)}, LCFS{Length: FixedG(1)},
		Random{Length: FixedG(1), Rng: rngutil.New(1)}} {
		if p.Discards() {
			t.Fatalf("%s must not discard", p.Name())
		}
	}
}

func TestControlledVariant(t *testing.T) {
	v := View{Now: 100, TPast: 90, TNewest: 100, K: 20, Tau: 1, Lambda: 1}
	cv := ControlledVariant{Length: FixedLength(4), Side: Newer, PositionLag: 3}
	w := cv.InitialWindow(v)
	if w.Start != 93 || w.End != 97 {
		t.Fatalf("lagged window %v", w)
	}
	if cv.ChooseSide(v, w, 0) != Newer {
		t.Fatal("side override ignored")
	}
	if !cv.Discards() {
		t.Fatal("variant must keep element (4)")
	}
	if cv.SplitFraction(v, w, 0) != 0.5 {
		t.Fatal("variant splits in half")
	}
	if cv.Name() == "" {
		t.Fatal("empty name")
	}
	// Lag beyond the span clamps so the window still fits.
	cv.PositionLag = 100
	w = cv.InitialWindow(v)
	if w.Start < 90 || w.End > 100 {
		t.Fatalf("clamped window %v", w)
	}
	// Validation.
	if err := Validate(ControlledVariant{Length: FixedLength(1)}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(ControlledVariant{}); err == nil {
		t.Fatal("missing length accepted")
	}
	if err := Validate(ControlledVariant{Length: FixedLength(1), PositionLag: -1}); err == nil {
		t.Fatal("negative lag accepted")
	}
}

func TestMinSplitLenGivesUpOnPhantoms(t *testing.T) {
	// Simulate a phantom collision: the oracle reports 2 for every window
	// wider than epsilon and 0 below — no splitting can ever isolate a
	// message.  With MinSplitLen set, the process must terminate without
	// success instead of panicking at the depth bound.
	p := Controlled{Length: FixedLength(4)}
	v := view(10, 0)
	v.MinSplitLen = 1e-3
	rep, err := RunProcess(p, v, func(w Window) int {
		if w.Len() > 1e-3 {
			return 2
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Success {
		t.Fatal("phantom process succeeded")
	}
	if len(rep.Steps) > 60 {
		t.Fatalf("too many probes before giving up: %d", len(rep.Steps))
	}
}

// --- Resolver / RunProcess ----------------------------------------------------

// oracle builds a content function over a fixed set of arrival times.
func oracle(arrivals []float64) func(Window) int {
	s := append([]float64(nil), arrivals...)
	sort.Float64s(s)
	return func(w Window) int {
		lo := sort.SearchFloat64s(s, w.Start)
		hi := sort.SearchFloat64s(s, w.End)
		return hi - lo
	}
}

func view(now, tpast float64) View {
	return View{Now: now, TPast: tpast, TNewest: now, K: math.Inf(1), Tau: 1, Lambda: 1}
}

func TestProcessEmptyInitialWindow(t *testing.T) {
	// Figure 1a: no arrivals in the initial window.
	p := Controlled{Length: FixedLength(4)}
	rep, err := RunProcess(p, view(10, 0), oracle(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Success {
		t.Fatal("empty process succeeded")
	}
	if len(rep.Steps) != 1 || rep.Steps[0].Outcome != Idle {
		t.Fatalf("steps = %+v", rep.Steps)
	}
	if rep.WastedSlots != 1 {
		t.Fatalf("wasted = %d", rep.WastedSlots)
	}
	if len(rep.Examined) != 1 || rep.Examined[0] != (Window{0, 4}) {
		t.Fatalf("examined = %v", rep.Examined)
	}
}

func TestProcessImmediateSuccess(t *testing.T) {
	p := Controlled{Length: FixedLength(4)}
	rep, err := RunProcess(p, view(10, 0), oracle([]float64{2.5}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatal("single-arrival process failed")
	}
	if rep.WastedSlots != 0 {
		t.Fatalf("wasted = %d, want 0", rep.WastedSlots)
	}
	if !rep.SuccessWindow.Contains(2.5) {
		t.Fatalf("success window %v misses arrival", rep.SuccessWindow)
	}
}

func TestProcessCollisionThenSplit(t *testing.T) {
	// Figure 1b-1d: two arrivals collide; the older half isolates one.
	// Window [0,4); arrivals at 0.5 and 3.0.
	// Probe [0,4): collision. Split -> older [0,2) enabled.
	// Probe [0,2): success (0.5 transmitted). [2,4) released.
	p := Controlled{Length: FixedLength(4)}
	rep, err := RunProcess(p, view(10, 0), oracle([]float64{0.5, 3.0}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatal("no success")
	}
	if len(rep.Steps) != 2 {
		t.Fatalf("steps = %+v", rep.Steps)
	}
	if rep.Steps[0].Outcome != Collision || rep.Steps[1].Outcome != Success {
		t.Fatalf("outcomes = %+v", rep.Steps)
	}
	if !rep.SuccessWindow.Contains(0.5) || rep.SuccessWindow.Contains(3.0) {
		t.Fatalf("wrong message isolated: %v", rep.SuccessWindow)
	}
	if rep.WastedSlots != 1 {
		t.Fatalf("wasted = %d", rep.WastedSlots)
	}
	// The newer half [2,4) must be released, not examined.
	if len(rep.Released) != 1 || rep.Released[0] != (Window{2, 4}) {
		t.Fatalf("released = %v", rep.Released)
	}
}

func TestProcessIdleHalfSplitsSibling(t *testing.T) {
	// Both arrivals in the newer half: older probe idle, sibling is known
	// to contain >= 2 and is split immediately (figure 1 narrative).
	// Window [0,4); arrivals at 2.2 and 3.7.
	// Probe [0,4): collision -> older [0,2).
	// Probe [0,2): idle -> sibling [2,4) split -> older [2,3).
	// Probe [2,3): success (2.2). [3,4) released.
	p := Controlled{Length: FixedLength(4)}
	rep, err := RunProcess(p, view(10, 0), oracle([]float64{2.2, 3.7}))
	if err != nil {
		t.Fatal(err)
	}
	want := []Feedback{Collision, Idle, Success}
	if len(rep.Steps) != len(want) {
		t.Fatalf("steps = %+v", rep.Steps)
	}
	for i, fb := range want {
		if rep.Steps[i].Outcome != fb {
			t.Fatalf("step %d outcome %v, want %v", i, rep.Steps[i].Outcome, fb)
		}
	}
	if !rep.SuccessWindow.Contains(2.2) {
		t.Fatalf("wrong message: %v", rep.SuccessWindow)
	}
	if rep.WastedSlots != 2 {
		t.Fatalf("wasted = %d", rep.WastedSlots)
	}
}

func TestProcessDeepSplit(t *testing.T) {
	// Two very close arrivals force repeated splitting.
	p := Controlled{Length: FixedLength(4)}
	rep, err := RunProcess(p, view(10, 0), oracle([]float64{1.0001, 1.0002}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatal("no success")
	}
	if !rep.SuccessWindow.Contains(1.0001) || rep.SuccessWindow.Contains(1.0002) {
		t.Fatalf("FCFS order violated: %v", rep.SuccessWindow)
	}
	if len(rep.Steps) < 5 {
		t.Fatalf("expected deep splitting, got %d steps", len(rep.Steps))
	}
}

func TestControlledTransmitsOldestArrival(t *testing.T) {
	// Theorem 1 behaviour: the controlled policy isolates the *oldest*
	// pending arrival whatever the configuration.
	r := rngutil.New(77)
	p := Controlled{Length: FixedLength(8)}
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(6) + 1
		arr := make([]float64, n)
		for i := range arr {
			arr[i] = r.Float64() * 8
		}
		rep, err := RunProcess(p, view(9, 0), oracle(arr))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Success {
			t.Fatal("nonempty window gave no success")
		}
		oldest := arr[0]
		for _, a := range arr {
			if a < oldest {
				oldest = a
			}
		}
		if !rep.SuccessWindow.Contains(oldest) {
			t.Fatalf("trial %d: oldest %v not in success window %v (arrivals %v)",
				trial, oldest, rep.SuccessWindow, arr)
		}
		// The success window must contain exactly one arrival.
		if oracle(arr)(rep.SuccessWindow) != 1 {
			t.Fatalf("success window %v holds %d arrivals", rep.SuccessWindow, oracle(arr)(rep.SuccessWindow))
		}
	}
}

func TestLCFSTransmitsNewestArrival(t *testing.T) {
	r := rngutil.New(78)
	p := LCFS{Length: FixedLength(8)}
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(6) + 1
		arr := make([]float64, n)
		for i := range arr {
			arr[i] = r.Float64() * 8
		}
		v := View{Now: 8, TPast: 0, TNewest: 8, K: math.Inf(1), Tau: 1, Lambda: 1}
		rep, err := RunProcess(p, v, oracle(arr))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Success {
			t.Fatal("nonempty window gave no success")
		}
		newest := arr[0]
		for _, a := range arr {
			if a > newest {
				newest = a
			}
		}
		if !rep.SuccessWindow.Contains(newest) {
			t.Fatalf("trial %d: newest %v not isolated (window %v, arrivals %v)",
				trial, newest, rep.SuccessWindow, arr)
		}
	}
}

// Property: for any arrival set, a successful process's examined+released
// windows exactly tile the initial window, and the success window holds
// exactly one arrival.
func TestProcessTilingProperty(t *testing.T) {
	f := func(seed uint64, count uint8) bool {
		r := rngutil.New(seed)
		n := int(count % 8)
		arr := make([]float64, n)
		for i := range arr {
			arr[i] = r.Float64() * 6
		}
		p := Controlled{Length: FixedLength(6)}
		rep, err := RunProcess(p, view(7, 0), oracle(arr))
		if err != nil {
			return false
		}
		// Tiling check: total measure of examined + released equals the
		// initial window length, with no overlaps.
		var all []Window
		all = append(all, rep.Examined...)
		all = append(all, rep.Released...)
		sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
		total := 0.0
		for i, w := range all {
			total += w.Len()
			if i > 0 && all[i-1].End > w.Start+1e-12 {
				return false // overlap
			}
		}
		if math.Abs(total-6) > 1e-9 {
			return false
		}
		if n == 0 {
			return !rep.Success
		}
		if !rep.Success {
			return false
		}
		return oracle(arr)(rep.SuccessWindow) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResolverMisuse(t *testing.T) {
	p := Controlled{Length: FixedLength(4)}
	r, err := NewResolver(p, view(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	r.OnFeedback(Idle) // empty initial window: done
	if !r.Done() || r.Success() {
		t.Fatal("state after idle initial window")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("OnFeedback after done did not panic")
			}
		}()
		r.OnFeedback(Idle)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SuccessWindow on failed process did not panic")
			}
		}()
		r.SuccessWindow()
	}()
}

func TestResolverClampAndErrors(t *testing.T) {
	p := Controlled{Length: FixedLength(100)}
	r, err := NewResolver(p, view(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	w := r.Enabled()
	if w.Start != 4 || w.End != 10 {
		t.Fatalf("clamped window %v", w)
	}
	// Degenerate view: TPast == Now.
	if _, err := NewResolver(p, view(10, 10)); err == nil {
		t.Fatal("empty clamped window accepted")
	}
}

func TestRunProcessOracleError(t *testing.T) {
	p := Controlled{Length: FixedLength(4)}
	_, err := RunProcess(p, view(10, 0), func(Window) int { return -1 })
	if err == nil {
		t.Fatal("negative oracle accepted")
	}
}

func TestCoincidentArrivalsPanic(t *testing.T) {
	p := Controlled{Length: FixedLength(4)}
	defer func() {
		if recover() == nil {
			t.Fatal("coincident arrivals did not panic")
		}
	}()
	_, _ = RunProcess(p, view(10, 0), oracle([]float64{1, 1}))
}

// --- Tracker -------------------------------------------------------------------

func TestTrackerHorizon(t *testing.T) {
	tr := NewTracker(0, 5, true)
	if tr.Horizon(3) != 0 {
		t.Fatal("horizon before K elapsed")
	}
	if tr.Horizon(8) != 3 {
		t.Fatal("horizon after K elapsed")
	}
	tr2 := NewTracker(0, 5, false)
	if tr2.Horizon(100) != 0 {
		t.Fatal("non-discarding horizon must stay at start")
	}
}

func TestTrackerTPastProgression(t *testing.T) {
	tr := NewTracker(0, math.Inf(1), false)
	if tr.TPast(10) != 0 {
		t.Fatal("initial t_past")
	}
	tr.Commit(10, []Window{{0, 4}})
	if tr.TPast(10) != 4 {
		t.Fatalf("t_past after prefix commit: %v", tr.TPast(10))
	}
	// Interior examined window leaves t_past at the older gap.
	tr.Commit(10, []Window{{6, 8}})
	if tr.TPast(10) != 4 {
		t.Fatalf("t_past with interior gap: %v", tr.TPast(10))
	}
	if tr.TNewest(10) != 10 {
		t.Fatalf("t_newest: %v", tr.TNewest(10))
	}
	// Covering the top: newest slides to the end of the youngest gap.
	// Cleared = [0,4) ∪ [6,10), so the only gap is [4,6) and TNewest = 6.
	tr.Commit(10, []Window{{8, 10}})
	if tr.TNewest(10) != 6 {
		t.Fatalf("t_newest with covered top: %v", tr.TNewest(10))
	}
	if m := tr.PseudoDelay(10, tr.Horizon(10)); math.Abs(m-2) > 1e-12 {
		t.Fatalf("unexamined span %v, want 2 ([4,6))", m)
	}
}

func TestTrackerDiscardAdvancesTPast(t *testing.T) {
	tr := NewTracker(0, 5, true)
	// Nothing examined: at time 12 the horizon alone sets t_past = 7.
	if tr.TPast(12) != 7 {
		t.Fatalf("t_past = %v, want horizon 7", tr.TPast(12))
	}
	// Examined mass below the horizon is trimmed away on Commit.
	tr.Commit(12, []Window{{0, 2}})
	if len(tr.AppendCleared(nil)) != 0 {
		t.Fatalf("sub-horizon interval kept: %v", tr.AppendCleared(nil))
	}
}

func TestTrackerView(t *testing.T) {
	tr := NewTracker(0, 5, true)
	v := tr.View(12, 0.5, 2)
	if v.Now != 12 || v.TPast != 7 || v.TNewest != 12 || v.K != 5 || v.Tau != 0.5 || v.Lambda != 2 {
		t.Fatalf("view = %+v", v)
	}
}

func TestTrackerPanicsOnBadK(t *testing.T) {
	for _, k := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("K=%v accepted", k)
				}
			}()
			NewTracker(0, k, true)
		}()
	}
}

// Property: under the controlled policy the cleared set is always a single
// prefix interval — Theorem 1's "no gaps" corollary.
func TestControlledNoGapsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		tr := NewTracker(0, math.Inf(1), false)
		now := 5.0
		p := Controlled{Length: FixedLength(2)}
		// Pending arrivals anywhere in the past.
		var pending []float64
		for i := 0; i < 10; i++ {
			pending = append(pending, r.Float64()*now)
		}
		sort.Float64s(pending)
		for round := 0; round < 15; round++ {
			v := tr.View(now, 0.1, 1)
			if v.TPast >= v.TNewest {
				return false
			}
			rep, err := RunProcess(p, v, oracle(pending))
			if err != nil {
				return false
			}
			tr.Commit(now, rep.Examined)
			if rep.Success {
				// Remove the transmitted arrival.
				for i, a := range pending {
					if rep.SuccessWindow.Contains(a) {
						pending = append(pending[:i], pending[i+1:]...)
						break
					}
				}
			}
			now += 0.1 * float64(len(rep.Steps))
			// Invariant: cleared region is empty or one prefix interval.
			iv := tr.AppendCleared(nil)
			if len(iv) > 1 {
				return false
			}
			if len(iv) == 1 && math.Abs(iv[0].Start-0) > 1e-12 && iv[0].Start > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
