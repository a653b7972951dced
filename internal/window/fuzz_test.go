package window

import (
	"math"
	"sort"
	"testing"

	"windowctl/internal/rngutil"
)

// FuzzIntervalSet feeds arbitrary interval sequences into the set and
// checks the structural invariants plus query consistency against a
// brute-force reference implementation.
func FuzzIntervalSet(f *testing.F) {
	f.Add(uint64(1), uint8(4))
	f.Add(uint64(42), uint8(17))
	f.Add(uint64(999), uint8(60))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		r := rngutil.New(seed)
		var s IntervalSet
		var raw []Window
		for i := 0; i < int(n%32)+1; i++ {
			a := r.Float64() * 20
			w := Window{a, a + r.Float64()*4}
			s.Add(w)
			raw = append(raw, w)
		}
		// Invariant: sorted, disjoint, coalesced, non-empty.
		iv := s.AppendTo(nil)
		for i, w := range iv {
			if w.Empty() {
				t.Fatal("empty member")
			}
			if i > 0 && iv[i-1].End >= w.Start {
				t.Fatal("overlap or missed coalesce")
			}
		}
		// Covers agrees with the raw windows.
		for probe := 0.0; probe < 25; probe += 0.37 {
			want := false
			for _, w := range raw {
				if w.Contains(probe) {
					want = true
					break
				}
			}
			if got := s.Covers(probe); got != want {
				t.Fatalf("Covers(%v) = %v, reference %v", probe, got, want)
			}
		}
		// UncoveredMeasure is consistent with pointwise sampling.
		lo, hi := 0.0, 25.0
		const samples = 2000
		covered := 0
		for i := 0; i < samples; i++ {
			x := lo + (hi-lo)*(float64(i)+0.5)/samples
			if s.Covers(x) {
				covered++
			}
		}
		approx := (hi - lo) * float64(samples-covered) / samples
		if got := s.UncoveredMeasure(lo, hi); math.Abs(got-approx) > 0.3 {
			t.Fatalf("UncoveredMeasure %v vs sampled %v", got, approx)
		}
	})
}

// FuzzResolver runs complete windowing processes over arbitrary arrival
// sets and checks the protocol invariants: exactly-one-message success
// windows, tiling of the initial window, termination.
func FuzzResolver(f *testing.F) {
	f.Add(uint64(7), uint8(3), false)
	f.Add(uint64(100), uint8(0), true)
	f.Add(uint64(31337), uint8(9), false)
	f.Fuzz(func(t *testing.T, seed uint64, count uint8, lcfs bool) {
		r := rngutil.New(seed)
		n := int(count % 12)
		arr := make([]float64, n)
		for i := range arr {
			arr[i] = r.Float64() * 10
		}
		sort.Float64s(arr)
		// Reject coincident arrivals (probability ~0 in the real model).
		for i := 1; i < n; i++ {
			if arr[i] == arr[i-1] {
				return
			}
		}
		var p Policy = Controlled{Length: FixedLength(10)}
		if lcfs {
			p = LCFS{Length: FixedLength(10)}
		}
		v := View{Now: 10, TPast: 0, TNewest: 10, K: math.Inf(1), Tau: 1, Lambda: 1}
		oracle := func(w Window) int {
			lo := sort.SearchFloat64s(arr, w.Start)
			hi := sort.SearchFloat64s(arr, w.End)
			return hi - lo
		}
		rep, err := RunProcess(p, v, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if (n > 0) != rep.Success {
			t.Fatalf("success=%v with %d arrivals", rep.Success, n)
		}
		if rep.Success && oracle(rep.SuccessWindow) != 1 {
			t.Fatalf("success window holds %d arrivals", oracle(rep.SuccessWindow))
		}
		// Examined windows must contain no untransmitted arrivals: every
		// arrival inside an examined window must be the transmitted one.
		for _, w := range rep.Examined {
			c := oracle(w)
			if c > 0 && !(rep.Success && w == rep.SuccessWindow && c == 1) {
				t.Fatalf("examined window %v still holds %d arrivals", w, c)
			}
		}
		// Tiling: examined + released measures sum to the initial window.
		total := 0.0
		for _, w := range rep.Examined {
			total += w.Len()
		}
		for _, w := range rep.Released {
			total += w.Len()
		}
		if math.Abs(total-10) > 1e-9 {
			t.Fatalf("tiling measure %v != 10", total)
		}
	})
}
