package sim

import (
	"math"
	"testing"

	"windowctl/internal/window"
)

// TestAdaptiveRateConvergesToTruth: an estimator seeded an order of
// magnitude wrong must converge to the true arrival rate from channel
// observations alone.
func TestAdaptiveRateConvergesToTruth(t *testing.T) {
	lambda := 0.03
	for _, wrong := range []float64{lambda * 10, lambda / 10} {
		est := window.NewRateEstimator(wrong, 2000)
		cfg := Config{
			Policy: window.Controlled{Length: window.FixedG(gStar)},
			Tau:    1, M: 25, Lambda: lambda, K: 50,
			EndTime: 4e5, Warmup: 4e4, Seed: 61,
			RateEstimator: est,
		}
		if _, err := RunGlobal(cfg); err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Rate()-lambda) > 0.25*lambda {
			t.Fatalf("seeded at %v: estimate %v, truth %v", wrong, est.Rate(), lambda)
		}
	}
}

// TestAdaptiveLossNearOracle: operating on the estimated rate must cost
// little versus knowing λ′ exactly.
func TestAdaptiveLossNearOracle(t *testing.T) {
	lambda := 0.03
	base := Config{
		Policy: window.Controlled{Length: window.FixedG(gStar)},
		Tau:    1, M: 25, Lambda: lambda, K: 50,
		EndTime: 8e5, Warmup: 1e5, Seed: 62,
	}
	oracle, err := RunGlobal(base)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := base
	adaptive.RateEstimator = window.NewRateEstimator(lambda*5, 2000)
	arep, err := RunGlobal(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(arep.Loss()-oracle.Loss()) > 0.2*oracle.Loss()+0.01 {
		t.Fatalf("adaptive loss %.4f vs oracle %.4f", arep.Loss(), oracle.Loss())
	}
}

func TestRateEstimatorUnit(t *testing.T) {
	e := window.NewRateEstimator(1, 10)
	// Constant-density observations pull the estimate to that density.
	for i := 0; i < 200; i++ {
		e.Observe(2, 10) // density 0.2
	}
	if math.Abs(e.Rate()-0.2) > 0.01 {
		t.Fatalf("estimate %v, want 0.2", e.Rate())
	}
	// Zero-measure observations are ignored.
	before := e.Rate()
	e.Observe(5, 0)
	if e.Rate() != before {
		t.Fatal("zero-measure observation changed the estimate")
	}
	// Long runs of empty observations floor at a tiny positive rate.
	for i := 0; i < 10000; i++ {
		e.Observe(0, 100)
	}
	if e.Rate() <= 0 {
		t.Fatal("estimate collapsed to zero")
	}
	for _, fn := range []func(){
		func() { window.NewRateEstimator(0, 1) },
		func() { window.NewRateEstimator(1, 0) },
		func() { e.Observe(-1, 1) },
	} {
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
