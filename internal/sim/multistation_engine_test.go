package sim

// Cross-engine oracle for the multi-station simulator: the shared path
// (the global engine, fed by a station.Bank for non-Poisson stations)
// must reproduce the per-station reference engine (denseState) bit for
// bit, at any worker count, and with Poisson stations it must be
// RunGlobal.  Fingerprints reuse the golden formatter, so "equal" means
// every report field equal, floats compared by their hex representation.

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
	"windowctl/internal/station"
)

// engineCase builds a fresh config per run: policies can carry stateful
// common-randomness streams, so sharing one config value across runs
// would let the first run perturb the second.  idle says whether the
// shared path takes idle runs (globalState.fastForwardIdle) on the case.
type engineCase struct {
	name string
	mk   func() MultiConfig
	idle bool
}

// The engine cases check lockstep in the reference run at every probe
// slot and over every station (the shared path has no lockstep check:
// it keeps one resolver).
func engineCases() []engineCase {
	base := func(pol string, seed uint64, stations int) MultiConfig {
		return MultiConfig{
			Config: Config{
				Policy:  goldenPolicy(pol, 31),
				Tau:     1,
				M:       25,
				Lambda:  0.6 / 25,
				K:       50,
				EndTime: 20000,
				Warmup:  2000,
				Seed:    seed,
			},
			Stations:       stations,
			lockstepEvery:  1,
			lockstepSample: stations,
		}
	}
	return []engineCase{
		{"controlled", func() MultiConfig { return base("controlled", 2718, 8) }, true},
		{"random", func() MultiConfig { return base("random", 2719, 8) }, false},
		{"fcfs", func() MultiConfig { return base("fcfs", 2720, 8) }, true},
		{"faults/common", func() MultiConfig {
			cfg := base("controlled", 2818, 8)
			cfg.Faults = goldenFaultMix
			return cfg
		}, false},
		{"arrivals/onoff", func() MultiConfig {
			cfg := base("controlled", 3318, 8)
			cfg.Arrivals = onOffArrivals(8, cfg.Lambda)
			return cfg
		}, true},
		{"m1000", func() MultiConfig {
			cfg := base("controlled", 3518, 1000)
			cfg.Lambda = 0.5 / 25
			cfg.EndTime = 5000
			cfg.Warmup = 500
			return cfg
		}, true},
	}
}

// idleRunCases stress the shared path's idle runs: a twin of each engine
// case whose reference run keeps only the per-station engine's default
// lockstep check, sampled, and so runs at its everyday cost; arrivals
// exactly on slot times; and light loads at non-integer τ (0.37, 0.1,
// 3.3) or with an EndTime off the slot grid, where a run's stop rule
// (slotsBefore) decides whether it keeps the dense engine's slot times.
func idleRunCases() []engineCase {
	var cases []engineCase
	for _, c := range engineCases() {
		mk := c.mk
		cases = append(cases, engineCase{c.name + "/nolockstep", func() MultiConfig {
			cfg := mk()
			cfg.lockstepEvery, cfg.lockstepSample = 0, 0
			return cfg
		}, c.idle})
	}
	light := func(name, pol string, seed uint64, tau, rho, end float64) engineCase {
		return engineCase{name, func() MultiConfig {
			return MultiConfig{
				Config: Config{
					Policy:  goldenPolicy(pol, 31),
					Tau:     tau,
					M:       25,
					Lambda:  rho / (25 * tau),
					K:       50 * tau,
					EndTime: end,
					Warmup:  end / 10,
					Seed:    seed,
				},
				Stations: 8,
			}
		}, true}
	}
	return append(cases,
		engineCase{"arrivals/on-grid", onGridMulti, true},
		light("tau0.37", "controlled", 4118, 0.37, 0.6, 20000*0.37),
		light("tau0.37/lcfs", "lcfs", 4119, 0.37, 0.6, 20000*0.37),
		light("rho0.1", "controlled", 4120, 1, 0.1, 20000),
		light("rho0.1/tau0.37/fcfs", "fcfs", 4121, 0.37, 0.1, 20000*0.37),
		light("end-offgrid", "controlled", 4122, 1, 0.5, 20000.5),
		light("end-offgrid/tau0.37/variant", "variant", 4123, 0.37, 0.3, 7400.2),
		light("rho0.1/tau0.1", "controlled", 4125, 0.1, 0.1, 2000.03),
		light("rho0.3/tau0.1/fcfs", "fcfs", 4126, 0.1, 0.3, 2000),
		light("rho0.1/tau3.3/lcfs", "lcfs", 4127, 3.3, 0.1, 66000.7),
		light("rho0.3/tau3.3", "controlled", 4128, 3.3, 0.3, 66000),
	)
}

// onGridGaps is an arrival process with a constant gap.
type onGridGaps float64

func (g onGridGaps) NextGap(*rngutil.Stream) float64 { return float64(g) }
func (g onGridGaps) String() string                  { return fmt.Sprintf("every %v", float64(g)) }

// onGridMulti puts every arrival exactly on a slot time (τ = 1, integer
// gaps 89 and 97, which first coincide after EndTime): slot-by-slot
// execution materializes such an arrival at that very slot, so an idle
// run must stop short of it.
func onGridMulti() MultiConfig {
	return MultiConfig{
		Config: Config{
			Policy:  goldenPolicy("controlled", 31),
			Tau:     1,
			M:       25,
			Lambda:  1.0/89 + 1.0/97,
			K:       50,
			EndTime: 8000,
			Warmup:  800,
			Seed:    4124,
		},
		Stations: 2,
		Arrivals: func(i int) station.ArrivalProcess { return onGridGaps(89 + 8*i) },
	}
}

// runShared runs cfg on the shared path and returns its report's
// fingerprint and the number of idle runs the engine took.
func runShared(t *testing.T, cfg MultiConfig) (string, int64) {
	t.Helper()
	g := newShared(t, cfg)
	rep, err := g.run()
	if err != nil {
		t.Fatal(err)
	}
	return goldenFingerprint(rep), g.idleRuns
}

// newShared validates cfg and builds its shared-path engine.
func newShared(t *testing.T, cfg MultiConfig) *globalState {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	g, err := newSharedState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustFingerprint(t *testing.T, cfg MultiConfig) string {
	t.Helper()
	rep, err := RunMultiStation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return goldenFingerprint(rep)
}

// TestMultiSharedMatchesDense pins the shared path to the reference
// engine, on the idle-run path too, collector included where one is
// attached.
func TestMultiSharedMatchesDense(t *testing.T) {
	for _, c := range append(engineCases(), idleRunCases()...) {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.mk()
			col := metrics.NewSlotMetrics(cfg.Tau, 64)
			cfg.Collector = col
			shared, runs := runShared(t, cfg)
			if (runs > 0) != c.idle {
				t.Errorf("shared path took %d idle runs; want runs = %v", runs, c.idle)
			}
			dense := c.mk()
			denseCol := metrics.NewSlotMetrics(dense.Tau, 64)
			dense.Collector = denseCol
			dense.forceDense = true
			if got := mustFingerprint(t, dense); got != shared {
				t.Errorf("dense engine diverged from shared fast path:\nshared: %s\ndense:  %s", shared, got)
			}
			if !reflect.DeepEqual(col, denseCol) {
				t.Errorf("dense engine's collector diverged from the shared path's:\nshared: %+v\ndense:  %+v", col.Snapshot(), denseCol.Snapshot())
			}
		})
	}
}

// atTau rescales cfg to slot time tau at the same ρ′, K/τ and run
// length in slots.
func atTau(cfg MultiConfig, tau float64) MultiConfig {
	f := tau / cfg.Tau
	cfg.Tau, cfg.Lambda = tau, cfg.Lambda/f
	cfg.K, cfg.EndTime, cfg.Warmup = cfg.K*f, cfg.EndTime*f, cfg.Warmup*f
	return cfg
}

// TestMultiPoissonIsGlobal pins a Poisson multi-station run to RunGlobal
// on the same Config, report and collector: M independent Poisson(λ′/M)
// stations merge into one Poisson(λ′) stream, so the run draws
// RunGlobal's gap stream.  If it drew one stream per station instead, it
// would simulate the same law on other arrivals, and on
// engine case "controlled" at τ = 1 it would lose 0.0539 of 427 messages
// where RunGlobal loses 0.0594 of 404.
func TestMultiPoissonIsGlobal(t *testing.T) {
	for _, c := range append(engineCases(), idleRunCases()...) {
		if c.mk().Arrivals != nil {
			continue
		}
		for _, tau := range []float64{1, 0.37, 0.1, 3.3} {
			t.Run(fmt.Sprintf("%s/tau=%g", c.name, tau), func(t *testing.T) {
				multi := atTau(c.mk(), tau)
				multiCol := metrics.NewSlotMetrics(tau, 64)
				multi.Collector = multiCol
				mrep, err := RunMultiStation(multi)
				if err != nil {
					t.Fatal(err)
				}
				global := atTau(c.mk(), tau).Config
				globalCol := metrics.NewSlotMetrics(tau, 64)
				global.Collector = globalCol
				grep, err := RunGlobal(global)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := goldenFingerprint(mrep), goldenFingerprint(grep); got != want {
					t.Errorf("RunMultiStation lost %.4f of %d messages, RunGlobal %.4f of %d; want the same run:\nmulti:  %s\nglobal: %s",
						mrep.Loss(), mrep.Offered, grep.Loss(), grep.Offered, got, want)
				}
				if !reflect.DeepEqual(multiCol, globalCol) {
					t.Errorf("RunMultiStation's collector differs from RunGlobal's:\nmulti:  %+v\nglobal: %+v", multiCol.Snapshot(), globalCol.Snapshot())
				}
			})
		}
	}
}

// TestMultiWorkersBitIdentical pins both engines' reports across worker
// counts: shards only partition index space, they never reorder results.
func TestMultiWorkersBitIdentical(t *testing.T) {
	for _, c := range engineCases()[:3] {
		t.Run(c.name, func(t *testing.T) {
			for _, dense := range []bool{false, true} {
				base := c.mk()
				base.Workers = 1
				base.forceDense = dense
				want := mustFingerprint(t, base)
				for _, workers := range []int{2, 5} {
					cfg := c.mk()
					cfg.Workers = workers
					cfg.forceDense = dense
					if got := mustFingerprint(t, cfg); got != want {
						t.Errorf("dense=%v workers=%d: report diverged:\nwant %s\ngot  %s", dense, workers, want, got)
					}
				}
			}
		})
	}
}

// TestMultiLockstepCatchesInjectedDesync corrupts one verified state
// machine's feedback mid-run in the per-station engine and requires its
// sampled lockstep check to fail the run.  This is the probe that keeps
// the sampled check honest: cheaper than an every-slot/every-station
// scan, but still a real detector.
func TestMultiLockstepCatchesInjectedDesync(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		cfg := engineCases()[0].mk()
		cfg.forceDense = true
		cfg.lockstepSample = 0
		cfg.lockstepFaultAt = 97
		_, err := RunMultiStation(cfg)
		if err == nil || !strings.Contains(err.Error(), "lockstep") {
			t.Fatalf("injected desync not detected; err = %v", err)
		}
	})
}

// TestMultiLockstepCleanRun double-checks the detector's false-positive
// rate: with no injected fault the sampled verification must stay silent
// even with an aggressive period and a full-population sample.
func TestMultiLockstepCleanRun(t *testing.T) {
	cfg := engineCases()[1].mk() // random policy: common-randomness forks
	cfg.forceDense = true
	cfg.lockstepEvery = 1
	cfg.lockstepSample = cfg.Stations
	if _, err := RunMultiStation(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMultiSharedRejectsNilArrival preserves the legacy factory contract.
func TestMultiSharedRejectsNilArrival(t *testing.T) {
	cfg := engineCases()[0].mk()
	cfg.Arrivals = func(int) station.ArrivalProcess { return nil }
	if _, err := RunMultiStation(cfg); err == nil {
		t.Fatal("nil arrival process accepted")
	}
}

// TestMultiUnconstrainedK runs the multi-station engines at K = +Inf,
// which Config.K documents as legal for delay-only runs.  Sizing the
// wait histogram as int(K/τ)+64 overflows there, and the run panics with
// "stats: invalid histogram shape" instead of returning a report.
func TestMultiUnconstrainedK(t *testing.T) {
	cfg := func() Config {
		return Config{
			Policy: goldenPolicy("fcfs", 31), Tau: 1, M: 25, Lambda: 0.5 / 25,
			K: math.Inf(1), EndTime: 5000, Warmup: 500, Seed: 4130,
		}
	}
	for _, c := range []struct {
		name string
		run  func() (Report, error)
	}{
		{"shared", func() (Report, error) { return RunMultiStation(MultiConfig{Config: cfg(), Stations: 4}) }},
		{"dense", func() (Report, error) {
			return RunMultiStation(MultiConfig{Config: cfg(), Stations: 4, forceDense: true})
		}},
		{"heterogeneous", func() (Report, error) {
			rep, err := RunHeterogeneous(HeterogeneousConfig{Config: cfg(), Transforms: make([]Transform, 4)})
			return rep.Report, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("K = +Inf run panicked with %q, want a report", r)
				}
			}()
			rep, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Transmissions == 0 || rep.Loss() != 0 {
				t.Errorf("K = +Inf run sent %d messages at loss %v, want some sent and no loss", rep.Transmissions, rep.Loss())
			}
		})
	}
}
