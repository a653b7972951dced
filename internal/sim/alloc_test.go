package sim

// Steady-state allocation contract of the global-view engine: once the
// pending queue, resolver scratch and tracker intervals have grown to
// their working sizes, a decision-epoch step allocates nothing.  This is
// the invariant the PERFORMANCE.md hot-path description promises and the
// benchmark-regression harness (cmd/simbench) assumes when it reports
// allocs/message.

import (
	"testing"

	"windowctl/internal/window"
)

// allocConfig is a busy-but-stable operating point: ρ′ = 0.75 keeps the
// backlog non-empty most of the time (exercising counting, splitting,
// extraction and element-(4) discards) while still leaving idle stretches
// for the fast-forward path.  EndTime is effectively unbounded so the
// measured steps never hit the finish path.
var allocConfig = Config{
	Policy:  window.Controlled{Length: window.FixedG(2.6)},
	Tau:     1,
	M:       25,
	Lambda:  0.75 / 25,
	K:       100,
	EndTime: 1e15,
	Seed:    97,
}

// TestGlobalStepZeroAlloc covers both key rules of the two-key descent:
// the older-first policies (controlled, FCFS) and the newer-first one
// (LCFS).
func TestGlobalStepZeroAlloc(t *testing.T) {
	for _, pol := range []window.Policy{
		allocConfig.Policy,
		window.FCFS{Length: window.FixedG(2.6)},
		window.LCFS{Length: window.FixedG(2.6)},
	} {
		t.Run(pol.Name(), func(t *testing.T) {
			cfg := allocConfig
			cfg.Policy = pol
			g, err := newGlobalState(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm every buffer past its working size: pending-queue
			// capacity, resolver step/interval scratch, tracker interval
			// set, histogram.
			for i := 0; i < 200000; i++ {
				if err := g.step(); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(100000, func() {
				if err := g.step(); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state step allocates %v times per run; the hot path must be allocation-free", avg)
			}
		})
	}
}

// TestMultiStepZeroAlloc extends the contract to the multi-station
// shared path fed by the station bank (on/off stations; Poisson ones
// make it the global engine above): once the Bank's epoch buffers, the
// pending queue and the resolver scratch have reached their working
// sizes, a step (one decision epoch, or one run of idle slots) allocates
// nothing.  The shared path has no lockstep check, so it takes idle
// runs, and the measurement must include some.
func TestMultiStepZeroAlloc(t *testing.T) {
	t.Run("nolockstep", func(t *testing.T) {
		cfg := MultiConfig{Config: allocConfig, Stations: 64, Arrivals: onOffArrivals(64, allocConfig.Lambda)}
		g := newShared(t, cfg)
		step := func() {
			if g.now >= cfg.EndTime {
				t.Fatal("run ended")
			}
			if err := g.step(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200000; i++ {
			step()
		}
		runs := g.idleRuns
		avg := testing.AllocsPerRun(100000, step)
		if avg != 0 {
			t.Fatalf("steady-state multi step allocates %v times per run; the decision-epoch hot path must be allocation-free", avg)
		}
		if g.idleRuns == runs {
			t.Fatal("no idle run taken during the measurement")
		}
	})
}

// TestGlobalStepZeroAllocNoFastForward pins the probe-by-probe idle path
// (every idle slot runs a full process) to the same contract.
func TestGlobalStepZeroAllocNoFastForward(t *testing.T) {
	cfg := allocConfig
	cfg.DisableFastForward = true
	cfg.Lambda = 0.3 / 25 // idle-heavy: most processes find nothing
	g, err := newGlobalState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		if err := g.step(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50000, func() {
		if err := g.step(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state idle step allocates %v times per run", avg)
	}
}
