package sim

import (
	"fmt"
	"reflect"
	"testing"

	"windowctl/internal/fault"
	"windowctl/internal/window"
)

// faultMixes are the fault-rate combinations the conservation matrix
// exercises: each kind alone, all together, and a heavy mixed load.
var faultMixes = []struct {
	name  string
	rates fault.Rates
}{
	{"erasure", fault.Rates{Erasure: 0.05}},
	{"false-collision", fault.Rates{FalseCollision: 0.05}},
	{"missed-collision", fault.Rates{MissedCollision: 0.2}},
	{"all", fault.Rates{Erasure: 0.03, FalseCollision: 0.03, MissedCollision: 0.1}},
	{"heavy", fault.Rates{Erasure: 0.15, FalseCollision: 0.15, MissedCollision: 0.5}},
}

// TestFaultConservationGlobal runs the instrumented global simulator over
// the fault-mix matrix.  RunGlobal verifies both conservation invariants
// at the end of every instrumented run (a violation is an error), so a
// nil error is the core assertion; on top the test checks the message
// identity explicitly and that faults were actually injected.
func TestFaultConservationGlobal(t *testing.T) {
	for _, mix := range faultMixes {
		t.Run(mix.name, func(t *testing.T) {
			cfg := controlledCfg(0.5, 25, 2, 0xBEEF)
			cfg.EndTime, cfg.Warmup = 5e4, 2e3
			cfg.Faults = fault.Config{Rates: mix.rates, Seed: 42}
			sm := collectorFor(cfg)
			cfg.Collector = sm
			rep, err := RunGlobal(cfg)
			if err != nil {
				t.Fatalf("instrumented faulty run failed: %v", err)
			}
			if sm.Faults() == 0 {
				t.Fatal("no faults injected at nonzero rates")
			}
			if got := sm.Transmissions + sm.Discards + int64(rep.EndBacklog); sm.Arrivals != got {
				t.Errorf("conservation: arrivals %d != transmitted %d + discarded %d + resident %d",
					sm.Arrivals, sm.Transmissions, sm.Discards, rep.EndBacklog)
			}
			if mix.rates.Erasure > 0 && sm.Recoveries == 0 {
				t.Error("erasures injected but no recoveries recorded")
			}
		})
	}
}

// TestFaultConservationMultiStation is the multi-station counterpart,
// additionally covering per-station perception (where stations can
// desynchronize and the engine must detect and recover).  The engine's
// own end-of-run conservation check is the assertion.
func TestFaultConservationMultiStation(t *testing.T) {
	for _, mix := range faultMixes {
		for _, perStation := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/perStation=%v", mix.name, perStation), func(t *testing.T) {
				cfg := controlledCfg(0.5, 25, 2, 0xBEEF)
				cfg.EndTime, cfg.Warmup = 3e4, 2e3
				cfg.Faults = fault.Config{Rates: mix.rates, Seed: 42, PerStation: perStation}
				sm := collectorFor(cfg)
				cfg.Collector = sm
				_, err := RunMultiStation(MultiConfig{
					Config: cfg, Stations: 3,
				})
				if err != nil {
					t.Fatalf("instrumented faulty run failed: %v", err)
				}
				if sm.Faults() == 0 {
					t.Fatal("no faults injected at nonzero rates")
				}
				if perStation && sm.Desyncs == 0 {
					t.Error("independent per-station perception produced no desyncs")
				}
				if !perStation && sm.Desyncs != 0 {
					t.Errorf("shared perception recorded %d desyncs", sm.Desyncs)
				}
			})
		}
	}
}

// TestFaultScheduleDeterministic pins the counter-based fault schedule:
// the same Config.Faults seed must reproduce the run bit for bit, and a
// different fault seed (same traffic seed) must change it.
func TestFaultScheduleDeterministic(t *testing.T) {
	cfg := controlledCfg(0.5, 25, 2, 7)
	cfg.EndTime, cfg.Warmup = 5e4, 2e3
	cfg.Faults = fault.Config{Rates: fault.Rates{Erasure: 0.03, FalseCollision: 0.03, MissedCollision: 0.1}, Seed: 11}
	a, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same fault seed, different runs:\n%v\n%v", a, b)
	}
	cfg.Faults.Seed = 12
	c, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Loss() == c.Loss() && a.TrueWait.Mean() == c.TrueWait.Mean() {
		t.Fatal("different fault seeds produced identical runs")
	}
}

// TestFaultZeroRateBitIdentical is the gating contract: all-zero rates —
// even with a nonzero fault seed — must leave both simulators bit-
// identical to a configuration without the fault layer at all.
func TestFaultZeroRateBitIdentical(t *testing.T) {
	base := controlledCfg(0.5, 25, 2, 7)
	base.EndTime, base.Warmup = 5e4, 2e3
	faulty := base
	faulty.Faults = fault.Config{Seed: 99, PerStation: true} // rates all zero

	ga, err := RunGlobal(base)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := RunGlobal(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ga, gb) {
		t.Fatalf("global: zero-rate fault config changed the run:\n%v\n%v", ga, gb)
	}

	ma, err := RunMultiStation(MultiConfig{Config: base, Stations: 3})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := RunMultiStation(MultiConfig{Config: faulty, Stations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("multi-station: zero-rate fault config changed the run:\n%v\n%v", ma, mb)
	}
}

// TestFaultsRejectRateEstimator pins the declared incompatibility.
func TestFaultsRejectRateEstimator(t *testing.T) {
	cfg := controlledCfg(0.5, 25, 2, 7)
	cfg.Faults = fault.Config{Rates: fault.Rates{Erasure: 0.01}}
	cfg.RateEstimator = window.NewRateEstimator(cfg.Lambda, 0.05)
	if _, err := RunGlobal(cfg); err == nil {
		t.Fatal("Faults + RateEstimator accepted")
	}
	cfg.RateEstimator = nil
	cfg.Faults.Rates.Erasure = 1.5
	if _, err := RunGlobal(cfg); err == nil {
		t.Fatal("out-of-range fault rate accepted")
	}
}

// degradationSpec is the small panel the degradation tests evaluate.
var degradationSpec = PanelSpec{RhoPrime: 0.5, M: 25, KOverM: []float64{2, 4}}

// TestDegradationRateZeroMatchesFigure7 pins the anchoring contract: the
// ε = 0 column of a degradation curve is the perfect-feedback simulation
// of the same seed, bit for bit.
func TestDegradationRateZeroMatchesFigure7(t *testing.T) {
	opt := SimOptions{Messages: 4000, Seed: 1983}
	baseline, err := Figure7Panels([]PanelSpec{degradationSpec}, opt)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := DegradationPanels([]PanelSpec{degradationSpec}, DegradationOptions{
		SimOptions: opt, ErrorRates: []float64{0, 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range curves[0].Rows {
		want := baseline[0].Points[i].SimControlled
		if got := row.Points[0].Loss; got != want {
			t.Errorf("K/M=%v: rate-0 loss %v != figure-7 simulation %v", row.KOverM, got, want)
		}
		if lo, hi := row.Points[0].Lo, row.Points[0].Hi; lo != baseline[0].Points[i].SimLo || hi != baseline[0].Points[i].SimHi {
			t.Errorf("K/M=%v: rate-0 CI differs from figure-7 simulation", row.KOverM)
		}
	}
}

// TestDegradationDeterministicAcrossWorkers runs the same degradation
// evaluation sequentially and with a worker pool: the fault schedules are
// counter-based and item seeds identity-derived, so the results must be
// bit-identical at any worker count.
func TestDegradationDeterministicAcrossWorkers(t *testing.T) {
	opt := DegradationOptions{
		SimOptions: SimOptions{Messages: 3000, Seed: 7},
		ErrorRates: []float64{0, 0.05, 0.1},
	}
	seq := opt
	seq.Workers = 1
	par := opt
	par.Workers = 4
	a, err := DegradationPanels([]PanelSpec{degradationSpec}, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DegradationPanels([]PanelSpec{degradationSpec}, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed the degradation curve:\n%v\n%v", a, b)
	}
}

// TestDegradationMonotone checks the headline property of the curve: at a
// fixed constraint, loss does not decrease as the feedback-error rate
// grows.  The grid shares one simulation seed per constraint and one
// fault-word stream across rates (nested fault schedules — common random
// numbers), so the comparison is far less noisy than independent runs; a
// small slack still absorbs the residual divergence.
func TestDegradationMonotone(t *testing.T) {
	curves, err := DegradationPanels([]PanelSpec{degradationSpec}, DegradationOptions{
		SimOptions: SimOptions{Messages: 6000, Seed: 1983},
		ErrorRates: []float64{0, 0.05, 0.15},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range curves[0].Rows {
		for j := 1; j < len(row.Points); j++ {
			prev, cur := row.Points[j-1], row.Points[j]
			if cur.Loss < prev.Loss-0.005 {
				t.Errorf("K/M=%v: loss fell from %.5f (eps=%v) to %.5f (eps=%v)",
					row.KOverM, prev.Loss, prev.Rate, cur.Loss, cur.Rate)
			}
		}
		if last := row.Points[len(row.Points)-1]; last.Loss <= row.Points[0].Loss {
			t.Errorf("K/M=%v: heavy faults did not raise loss (%.5f -> %.5f)",
				row.KOverM, row.Points[0].Loss, last.Loss)
		}
	}
}

// TestDegradationValidation rejects out-of-range grids and mixes.
func TestDegradationValidation(t *testing.T) {
	if _, err := DegradationPanels([]PanelSpec{degradationSpec}, DegradationOptions{
		SimOptions: SimOptions{Messages: 1000},
		ErrorRates: []float64{-0.1},
	}); err == nil {
		t.Fatal("negative error rate accepted")
	}
	if _, err := DegradationPanels([]PanelSpec{degradationSpec}, DegradationOptions{
		SimOptions: SimOptions{Messages: 1000},
		Mix:        fault.Rates{Erasure: 2},
	}); err == nil {
		t.Fatal("out-of-range mix weight accepted")
	}
}
