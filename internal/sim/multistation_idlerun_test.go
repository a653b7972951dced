package sim

// Regression tests for the shared path's idle runs
// (globalState.fastForwardIdle fed by the station bank).  Each failure
// message names the wrong output the bug would produce; the path taken
// is read from the engine's unexported run count.

import (
	"strings"
	"testing"

	"windowctl/internal/metrics"
	"windowctl/internal/protocol/tournament"
)

// lightMulti is a shared-path run at ρ′ = 0.1 whose EndTime is off the
// slot grid: arrivals are ~250 slots apart, so most of the run is idle
// runs, and the last one ends at EndTime rather than at an arrival.
func lightMulti(tau float64) MultiConfig {
	return MultiConfig{
		Config: Config{
			Policy:  goldenPolicy("controlled", 31),
			Tau:     tau,
			M:       25,
			Lambda:  0.1 / (25 * tau),
			K:       50 * tau,
			EndTime: 20000.5 * tau,
			Warmup:  2000 * tau,
			Seed:    5150,
		},
		Stations: 8,
	}
}

// TestMultiIdleRunRefuses pins the cases where slot-by-slot execution is
// not one idle probe of the whole span per slot, so no run may be taken.
func TestMultiIdleRunRefuses(t *testing.T) {
	if _, runs := runShared(t, lightMulti(1)); runs == 0 {
		t.Fatal("the light controlled run took no idle runs, so the refusals below prove nothing")
	}
	for _, tc := range []struct {
		name, wrong string
		tweak       func(*MultiConfig)
	}{
		{"faults/common", "a faulted idle probe would be skipped, so the fault schedule and the report would drift from the dense engine",
			func(c *MultiConfig) { c.Faults = goldenFaultMix }},
		{"random", "the policy's common random stream would skip the draws of the run's windows",
			func(c *MultiConfig) { c.Policy = goldenPolicy("random", 31) }},
		{"tournament", "the policy's common random stream would skip the draws of the run's windows",
			func(c *MultiConfig) { c.Policy = directPolicy(tournament.Name, c.Config) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := lightMulti(1)
			tc.tweak(&cfg)
			if _, runs := runShared(t, cfg); runs != 0 {
				t.Errorf("took %d idle runs; %s", runs, tc.wrong)
			}
		})
	}

	t.Run("backlog", func(t *testing.T) {
		g := stepLight(t, lightMulti(1), func(g *globalState, now float64, runSlots int64) {
			if runSlots > 0 && g.pending.Len() != 0 {
				t.Fatalf("idle run taken at t=%v with %d messages pending: the run books their probe idle, and they wait past it instead of being transmitted",
					now, g.pending.Len())
			}
		})
		if g.idleRuns == 0 {
			t.Fatal("no idle run taken")
		}
	})

	t.Run("desync", func(t *testing.T) {
		// The lockstep check lives in the per-station engine, which
		// runs every slot: at the default period its process-end
		// comparison still sees the corrupted probe 97 at that very
		// slot.
		cfg := engineCases()[0].mk()
		cfg.forceDense = true
		cfg.lockstepEvery, cfg.lockstepSample = 0, 0
		cfg.lockstepFaultAt = 97
		_, err := RunMultiStation(cfg)
		if err == nil || !strings.Contains(err.Error(), "at probe slot 97 ") {
			t.Fatalf("injected desync at probe slot 97 reported as %v; want the lockstep failure at probe slot 97", err)
		}
	})

	// Where a run ends: its last slot lies before both EndTime and the
	// next arrival, and the slot it schedules reaches one of them.  A run
	// that went one slot further would book the probe that finds the
	// arrival as idle (or a slot past EndTime, where the dense engine
	// runs none); one that stopped short would only cost speed.
	for _, c := range []struct {
		name string
		cfg  MultiConfig
	}{
		{"tau=1", lightMulti(1)},
		{"tau=0.37", lightMulti(0.37)},
		{"on-grid", onGridMulti()},
	} {
		t.Run("stops/"+c.name, func(t *testing.T) {
			cfg := c.cfg
			var atArrival, atEnd int
			var pending bool // a run was taken in the previous step
			var last float64 // its last slot
			var next float64 // the slot after it
			var nextArr float64
			stepLight(t, cfg, func(g *globalState, now float64, runSlots int64) {
				if pending {
					pending = false
					if now != next {
						t.Fatalf("the slot after a run ending at %v is at %v, want %v", last, now, next)
					}
					switch {
					case now >= cfg.EndTime:
						atEnd++
					case now >= nextArr:
						atArrival++
					default:
						t.Fatalf("run stopped at %v with the next slot %v idle (next arrival %v, EndTime %v)", last, now, nextArr, cfg.EndTime)
					}
				}
				if runSlots == 0 {
					return
				}
				// The run's slot times, by the clock formula anchor + k·τ:
				// an idle run leaves the anchor where it was.
				if first := g.anchor + float64(g.k-runSlots)*cfg.Tau; first != now {
					t.Fatalf("a run taken at %v started at %v", now, first)
				}
				last = g.anchor + float64(g.k-1)*cfg.Tau
				next = g.anchor + float64(g.k)*cfg.Tau
				nextArr = g.arr.at
				if last >= nextArr {
					t.Fatalf("run booked the slot at %v idle, but slot-by-slot execution materializes the arrival at %v by then, and that slot probes a non-empty backlog", last, nextArr)
				}
				if last >= cfg.EndTime {
					t.Fatalf("run booked a slot at %v, past EndTime %v where the dense engine runs none", last, cfg.EndTime)
				}
				pending = true
			})
			if atArrival == 0 || atEnd != 1 {
				t.Errorf("runs stopped %d times at an arrival and %d times at EndTime; want some and exactly 1", atArrival, atEnd)
			}
		})
	}
}

// stepLight drives cfg's shared engine one decision epoch at a time to
// EndTime, calling after with the time of the step and the number of
// slots of the idle run it took (0 if it took none).  The last call is
// the end-of-run step at the first slot time >= EndTime, where the engine
// runs no slot.
func stepLight(t *testing.T, cfg MultiConfig, after func(g *globalState, now float64, runSlots int64)) *globalState {
	t.Helper()
	g := newShared(t, cfg)
	for g.now < cfg.EndTime {
		now, runs, k := g.now, g.idleRuns, g.k
		if err := g.step(); err != nil {
			t.Fatal(err)
		}
		var runSlots int64
		if g.idleRuns != runs {
			runSlots = g.k - k // an idle run leaves the anchor where it was
		}
		after(g, now, runSlots)
	}
	after(g, g.now, 0)
	return g
}

// TestMultiBooksStartupSlot runs the light multi-station case, whose
// EndTime 20000.5 ends the run on an idle run, on both engines with a
// collector.  Slot by slot the channel is busy for every slot of the
// clock, the start-up corner slot included, in which nothing is
// unexamined yet and no probe runs; the collector must account for all
// of it, as RunGlobal's does.  An engine that ticks the corner slot
// without booking it reads collector time 20000 against a clock of 20001.
func TestMultiBooksStartupSlot(t *testing.T) {
	const want = 20001.0
	elapsed := func(c *metrics.SlotMetrics) float64 { return c.IdleTime + c.BusyTime + c.CollisionTime }

	cfg := lightMulti(1)
	col := metrics.NewSlotMetrics(cfg.Tau, 64)
	cfg.Collector = col
	g := newShared(t, cfg)
	if _, err := g.run(); err != nil {
		t.Fatal(err)
	}
	if got := elapsed(col); got != want || g.now != want {
		t.Errorf("shared path: collector time %v and clock %v, want %v each", got, g.now, want)
	}

	dense := lightMulti(1)
	denseCol := metrics.NewSlotMetrics(dense.Tau, 64)
	dense.Collector = denseCol
	dense.forceDense = true
	if _, err := RunMultiStation(dense); err != nil {
		t.Fatal(err)
	}
	if got := elapsed(denseCol); got != want {
		t.Errorf("per-station engine: collector time %v, want the clock's %v", got, want)
	}
}
