package sim

// Regression tests for Config fields the slot engines (RunMultiStation
// and RunHeterogeneous) do not implement.  Both engines used to run with
// such a field set and silently ignore it; each failure message names the
// wrong output that silent run produces.  RunHeterogeneous runs on the
// per-station engine, so it honours Faults and a Collector as
// RunMultiStation does; its test checks that it does.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"windowctl/internal/dist"
	"windowctl/internal/metrics"
	"windowctl/internal/window"
)

// rejectBase is a light figure-7 point (ρ′ = 0.5, K/M = 2) with eight
// stations.
func rejectBase() Config {
	return Config{
		Policy:  window.Controlled{Length: window.FixedG(gStar)},
		Tau:     1,
		M:       25,
		Lambda:  0.5 / 25,
		K:       50,
		EndTime: 2e5,
		Warmup:  2e4,
		Seed:    41,
	}
}

// globalOnly is one Config field the slot engines must refuse: set
// installs it, and wrong describes the output of a run that ignored it,
// given that run's report and the report of the same run without it.
type globalOnly struct {
	field string
	set   func(*Config)
	wrong func(got, plain Report) string
}

func globalOnlyFields() []globalOnly {
	return []globalOnly{
		{"TxLengths",
			func(c *Config) { c.TxLengths = dist.NewExponential(1 / (c.M * c.Tau)) },
			func(got, plain Report) string {
				return fmt.Sprintf("loss %.4f, the fixed-length run's %.4f", got.Loss(), plain.Loss())
			}},
		{"RateEstimator",
			func(c *Config) { c.RateEstimator = window.NewRateEstimator(c.Lambda, 100*c.M*c.Tau) },
			func(got, plain Report) string {
				return fmt.Sprintf("loss %.4f, the known-rate run's %.4f", got.Loss(), plain.Loss())
			}},
		{"ExternalArrivals",
			func(c *Config) { c.ExternalArrivals = true },
			func(got, _ Report) string {
				return fmt.Sprintf("the run offered %d messages of its own, want none without pushed arrivals", got.Offered)
			}},
	}
}

func wantRejected(t *testing.T, err error, field, wrong string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted and ignored: %s", field, wrong)
	}
	if !strings.Contains(err.Error(), field) {
		t.Fatalf("%s rejected with %q, which does not name the field", field, err)
	}
}

func TestMultiStationRejectsGlobalOnlyFields(t *testing.T) {
	plain, err := RunMultiStation(MultiConfig{Config: rejectBase(), Stations: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range globalOnlyFields() {
		t.Run(f.field, func(t *testing.T) {
			cfg := MultiConfig{Config: rejectBase(), Stations: 8}
			f.set(&cfg.Config)
			rep, err := RunMultiStation(cfg)
			wantRejected(t, err, f.field, f.wrong(rep, plain))
		})
	}
}

func TestHeterogeneousRejectsUnsupportedFields(t *testing.T) {
	heteroCfg := func() HeterogeneousConfig {
		return HeterogeneousConfig{Config: rejectBase(), Transforms: make([]Transform, 4)}
	}
	plain, err := RunHeterogeneous(heteroCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range globalOnlyFields() {
		t.Run(f.field, func(t *testing.T) {
			cfg := heteroCfg()
			f.set(&cfg.Config)
			rep, err := RunHeterogeneous(cfg)
			wantRejected(t, err, f.field, f.wrong(rep.Report, plain.Report))
		})
	}
	// With the bug (Faults ignored) the faulted run reproduces the
	// fault-free report; a SlotMetrics makes the run check conservation.
	t.Run("Faults", func(t *testing.T) {
		for _, perStation := range []bool{false, true} {
			cfg := heteroCfg()
			cfg.Faults = goldenFaultMix
			cfg.Faults.PerStation = perStation
			sm := metrics.NewSlotMetrics(cfg.Tau, 64)
			cfg.Collector = sm
			rep, err := RunHeterogeneous(cfg)
			if err != nil {
				t.Fatalf("PerStation=%v: faulted run failed: %v", perStation, err)
			}
			if sm.Faults() == 0 {
				t.Errorf("PerStation=%v: SlotMetrics booked 0 faults, want some at rates %+v", perStation, cfg.Faults.Rates)
			}
			if reflect.DeepEqual(rep, plain) {
				t.Errorf("PerStation=%v: faulted run reproduced the fault-free report (loss %.4f, %d collision slots), want it perturbed",
					perStation, rep.Loss(), rep.CollisionSlots)
			}
		}
		// Perturbed membership under per-station faults: stranded
		// messages must still be booked as resident at the end.
		cfg := heteroCfg()
		cfg.Transforms = []Transform{PriorityStretch(1.5, 0.5), ClockSkew(0.2, 0.05), nil, nil}
		cfg.Faults = goldenFaultMix
		cfg.Faults.PerStation = true
		cfg.Collector = metrics.NewSlotMetrics(cfg.Tau, 64)
		if _, err := RunHeterogeneous(cfg); err != nil {
			t.Fatalf("perturbed faulted run failed: %v", err)
		}
	})
	// With the bug (Collector ignored) the SlotMetrics ends empty.
	t.Run("Collector", func(t *testing.T) {
		cfg := heteroCfg()
		sm := metrics.NewSlotMetrics(cfg.Tau, 64)
		cfg.Collector = sm
		rep, err := RunHeterogeneous(cfg)
		if err != nil {
			t.Fatalf("instrumented run failed: %v", err)
		}
		if sm.Transmissions != rep.Transmissions {
			t.Errorf("SlotMetrics booked %d transmissions, want the report's %d", sm.Transmissions, rep.Transmissions)
		}
	})
}
