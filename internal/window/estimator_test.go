package window

import (
	"math"
	"testing"
)

// The regression this file pins: Observe used to accept any non-NaN-check
// measure, so a single NaN examinedMeasure turned the rate into NaN
// forever (every later decay step propagates it) and a +Inf measure
// collapsed the estimate to the floor in one step.  A long-running
// process (cmd/windowd) feeds the estimator from live observations and
// must survive whatever arithmetic the engine hands it.
func TestRateEstimatorRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name     string
		messages int
		measure  float64
	}{
		{"nan measure", 1, math.NaN()},
		{"+inf measure", 1, math.Inf(1)},
		{"-inf measure", 1, math.Inf(-1)},
		{"zero measure", 3, 0},
		{"negative measure", 3, -5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewRateEstimator(0.5, 100)
			e.Observe(tc.messages, tc.measure)
			if got := e.Rate(); got != 0.5 {
				t.Errorf("Rate() = %v after Observe(%d, %v); want initial 0.5", got, tc.messages, tc.measure)
			}
			// The estimator must still work after the bad sample.
			e.Observe(1, 2)
			if math.IsNaN(e.Rate()) || e.Rate() <= 0 {
				t.Errorf("estimator unusable after bad sample: rate=%v", e.Rate())
			}
		})
	}
}

// A NaN must not survive a *sequence* of observations either: this is the
// exact poisoning scenario — one bad sample, then thousands of good ones
// that can never repair the estimate.
func TestRateEstimatorNotPoisonedByNaN(t *testing.T) {
	e := NewRateEstimator(1, 10)
	e.Observe(2, 4) // good
	before := e.Rate()
	e.Observe(1, math.NaN()) // bad: must be a no-op
	if got := e.Rate(); got != before {
		t.Fatalf("NaN observation changed the rate: %v -> %v", before, got)
	}
	for i := 0; i < 1000; i++ {
		e.Observe(1, 2)
	}
	if r := e.Rate(); math.IsNaN(r) || r < MinRate || r > MaxRate {
		t.Fatalf("rate %v outside [MinRate, MaxRate] after recovery sequence", r)
	}
	// 1 message per 2 units of examined time: the estimate should have
	// converged near density 0.5.
	if r := e.Rate(); math.Abs(r-0.5) > 0.05 {
		t.Fatalf("rate %v did not converge toward 0.5", r)
	}
}

// Overflow-scale (but finite) measures must clamp, not destroy: the decay
// underflows to 0 and the density toward 0, so the estimate lands on the
// documented MinRate floor and later observations pull it back up.
func TestRateEstimatorOverflowScaleMeasures(t *testing.T) {
	cases := []struct {
		name     string
		messages int
		measure  float64
		check    func(t *testing.T, rate float64)
	}{
		{"huge measure floors the rate", 1, 1e308, func(t *testing.T, rate float64) {
			if rate != MinRate {
				t.Errorf("Rate() = %v, want clamp %v", rate, MinRate)
			}
		}},
		// A denormal-scale measure overflows the density past MaxFloat64;
		// its EWMA weight (1-decay) simultaneously underflows to 0, so the
		// unclamped product would be 0·Inf = NaN.  The sample must instead
		// carry its (negligible) clamped weight and leave the rate intact.
		{"huge density is weightless, not NaN", math.MaxInt32, 1e-306, func(t *testing.T, rate float64) {
			if math.IsNaN(rate) {
				t.Fatal("rate is NaN: 0·Inf leaked through the EWMA mix")
			}
			if math.Abs(rate-1) > 1e-6 {
				t.Errorf("Rate() = %v, want ≈1 (near-zero-weight sample)", rate)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewRateEstimator(1, 100)
			e.Observe(tc.messages, tc.measure)
			tc.check(t, e.Rate())
			// Recovery: ordinary observations move the estimate back into
			// sensible territory (1000 units of measure = 10 half-lives).
			for i := 0; i < 1000; i++ {
				e.Observe(1, 1)
			}
			if r := e.Rate(); math.Abs(r-1) > 0.1 {
				t.Errorf("rate %v did not recover toward 1 after clamp", r)
			}
		})
	}
}

func TestRateEstimatorRateAlwaysInBounds(t *testing.T) {
	e := NewRateEstimator(1, 50)
	meas := []float64{1, 1e-300, 1e300, 3, math.Inf(1), 0.25, math.NaN(), 7}
	for i, m := range meas {
		e.Observe(i%3, m)
		if r := e.Rate(); math.IsNaN(r) || r < MinRate || r > MaxRate {
			t.Fatalf("after Observe(%d, %v): rate %v outside [%v, %v]", i%3, m, r, MinRate, MaxRate)
		}
	}
}
