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
