package sim

// FuzzEngineIdentities drives small random configurations through the
// batch engines, the stepped one and RunHeterogeneous, and holds them to
// the identities the engines promise: each pair of runs below must return
// the same report and leave the same collector, or both must reject the
// configuration.
//
// The seed corpus is in testdata/fuzz/FuzzEngineIdentities, one
// file per input, named after what it exercises.  Run it beyond the
// corpus with:
//
//	go test -run '^$' -fuzz FuzzEngineIdentities -fuzztime 30s ./internal/sim/

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
)

// identityTaus are the slot times the fuzzer picks from: integer and
// non-integer, above and below 1, where a run's slot times are sums of τ
// that float64 does not represent exactly.
var identityTaus = [...]float64{1, 0.37, 0.1, 3.3, 0.013}

var identityPolicies = [...]string{"controlled", "fcfs", "lcfs", "random", "variant"}

// identityCase decodes the fuzzer's bytes into a multi-station config
// factory (policies carry state, so every run gets a fresh one):
// τ from identityTaus, M in [1, 30.5], ρ′ in (0, 1.5], K/M in
// [0.5, 4] or +Inf, one of identityPolicies, 1–12 stations, common
// feedback faults on or off, and, for maxb >= 128, a backlog bound small
// enough that overloaded runs hit it.
func identityCase(seed uint64, tau, m, rho, kom, policy, stations, maxb uint8, faults bool) func() MultiConfig {
	t := identityTaus[int(tau)%len(identityTaus)]
	mm := 1 + float64(m%60)/2
	r := float64(1+rho%150) / 100
	k := math.Inf(1)
	if kom%9 != 8 {
		k = (1 + float64(kom%9)) / 2 * mm * t
	}
	pol := identityPolicies[int(policy)%len(identityPolicies)]
	n := 1 + int(stations%12)
	backlog := 0
	if maxb >= 128 {
		backlog = 4 * int(maxb-127)
	}
	return func() MultiConfig {
		cfg := MultiConfig{
			Config: Config{
				Policy:     goldenPolicy(pol, seed^0x5eed),
				Tau:        t,
				M:          mm,
				Lambda:     r / (mm * t),
				K:          k,
				EndTime:    1500 * t,
				Warmup:     150 * t,
				Seed:       seed,
				MaxBacklog: backlog,
			},
			Stations: n,
		}
		if faults {
			cfg.Faults = goldenFaultMix
			cfg.Faults.Seed = seed + 1
		}
		return cfg
	}
}

// identityRun is one run's outcome: the report's exact fingerprint, its
// collector and its error.
type identityRun struct {
	fp  string
	col *metrics.SlotMetrics
	err error
}

// runIdentity runs cfg with a fresh collector through run.
func runIdentity(cfg MultiConfig, run func(MultiConfig) (Report, error)) identityRun {
	col := metrics.NewSlotMetrics(cfg.Tau, 64)
	cfg.Collector = col
	rep, err := run(cfg)
	return identityRun{fp: goldenFingerprint(rep), col: col, err: err}
}

// describe names a config in a failure message.
func describe(cfg MultiConfig) string {
	return fmt.Sprintf("τ=%g M=%g ρ′=%.2f K=%g %s stations=%d faults=%v MaxBacklog=%d",
		cfg.Tau, cfg.M, cfg.Lambda*cfg.M*cfg.Tau, cfg.K, cfg.Policy.Name(), cfg.Stations, cfg.Faults.Enabled(), cfg.MaxBacklog)
}

// sameRun fails t unless a and b agree: both rejected, or neither did
// and their reports and collectors are equal.
func sameRun(t *testing.T, what string, a, b identityRun) {
	t.Helper()
	if (a.err != nil) != (b.err != nil) {
		t.Fatalf("%s: one side rejected the run and the other did not:\nerr a: %v\nerr b: %v", what, a.err, b.err)
	}
	if a.err != nil {
		return
	}
	if a.fp != b.fp {
		t.Fatalf("%s: reports differ:\na: %s\nb: %s", what, a.fp, b.fp)
	}
	if !reflect.DeepEqual(a.col, b.col) {
		t.Fatalf("%s: collectors differ:\na: %+v\nb: %+v", what, a.col.Snapshot(), b.col.Snapshot())
	}
}

// idleRunIdentity holds Stepper.IdleRun to its promise: an engine that
// takes idle runs and one that takes as many Steps with nothing injected
// reach the same clock and cleared region after every run, and the same
// report and collector at the end.  Between runs both take one Step after
// injecting the same Poisson count.  limit caps each run at limit%64
// slots (0: IdleRun must refuse); until ends it at the slot time
// until>>2 slots from now, plus until&3 quarters of a slot (0: exactly on
// a slot time).
func idleRunIdentity(t *testing.T, name string, mk func() MultiConfig, limit, until uint8) {
	cfg := mk().Config
	build := func() (*Stepper, *metrics.SlotMetrics) {
		col := metrics.NewSlotMetrics(cfg.Tau, 64)
		c := mk().Config
		c.Collector = col
		s, err := NewStepper(c)
		if err != nil {
			t.Fatalf("%s: NewStepper: %v", name, err)
		}
		return s, col
	}
	a, colA := build()
	b, colB := build()
	rel := rngutil.New(cfg.Seed ^ 0x1d1e)
	lim := int(limit % 64)
	runs := 0
	for round := 0; round < 400; round++ {
		g := a.g
		end := g.at(g.k+int64(until>>2)) + float64(until&3)/4*cfg.Tau
		before := a.Now()
		slots := a.IdleRun(lim, end)
		if slots > 0 && lim == 0 {
			t.Fatalf("%s: IdleRun took %d slots with limit 0", name, slots)
		}
		for i := 0; i < slots; i++ {
			if err := b.Step(); err != nil {
				t.Fatalf("%s: Step %d of a %d-slot idle run: %v", name, i, slots, err)
			}
		}
		if a.Now() != b.Now() {
			t.Fatalf("%s: Now() = %v after a %d-slot idle run, %v after as many Steps", name, a.Now(), slots, b.Now())
		}
		if ca, cb := a.g.tracker.AppendCleared(nil), b.g.tracker.AppendCleared(nil); !reflect.DeepEqual(ca, cb) {
			t.Fatalf("%s: cleared region %v after a %d-slot idle run, %v after as many Steps", name, ca, slots, cb)
		}
		if slots > 0 {
			runs++
		}
		n := rel.Poisson(cfg.Lambda * (a.Now() - before + cfg.Tau))
		a.Inject(n)
		b.Inject(n)
		errA, errB := a.Step(), b.Step()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: one engine failed its Step and the other did not:\nerr a: %v\nerr b: %v", name, errA, errB)
		}
		if errA != nil {
			break
		}
	}
	repA, errA := a.Finish()
	repB, errB := b.Finish()
	sameRun(t, fmt.Sprintf("%s: IdleRun(%d, +%d.%d slots) vs Steps (%d runs)", name, lim, until>>2, 25*(until&3), runs),
		identityRun{fp: goldenFingerprint(repA), col: colA, err: errA},
		identityRun{fp: goldenFingerprint(repB), col: colB, err: errB})
}

func FuzzEngineIdentities(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, tau, m, rho, kom, policy, stations, maxb uint8, faults bool, limit, until uint8) {
		mk := identityCase(seed, tau, m, rho, kom, policy, stations, maxb, faults)
		name := describe(mk())
		multi := func(tweak func(*MultiConfig)) identityRun {
			cfg := mk()
			tweak(&cfg)
			return runIdentity(cfg, RunMultiStation)
		}
		shared := multi(func(c *MultiConfig) { c.Workers = 1 })
		dense := multi(func(c *MultiConfig) { c.forceDense, c.Workers = true, 1 })
		sameRun(t, name+": "+"shared path vs per-station engine", shared, dense)
		sameRun(t, name+": "+"fast-forward on vs off", shared,
			multi(func(c *MultiConfig) { c.DisableFastForward, c.Workers = true, 1 }))
		sameRun(t, name+": "+"per-station engine at 1 vs 3 workers", dense,
			multi(func(c *MultiConfig) { c.forceDense, c.Workers = true, 3 }))
		global := func(descend bool) identityRun {
			return runIdentity(mk(), func(c MultiConfig) (Report, error) {
				g, err := newGlobalState(c.Config)
				if err != nil {
					return Report{}, err
				}
				g.descend = g.descend && descend
				return g.run()
			})
		}
		withDescent := global(true)
		sameRun(t, name+": "+"Poisson RunMultiStation vs RunGlobal", shared, withDescent)
		sameRun(t, name+": "+"two-key descent on vs off", withDescent, global(false))
		// identityCase sets none of the global-only fields that
		// RunHeterogeneous rejects, so every input is one it accepts.
		sameRun(t, name+": "+"RunHeterogeneous with nil transforms vs RunMultiStation", shared,
			runIdentity(mk(), func(c MultiConfig) (Report, error) {
				h, err := RunHeterogeneous(HeterogeneousConfig{Config: c.Config, Transforms: make([]Transform, c.Stations)})
				return h.Report, err
			}))
		idleRunIdentity(t, name, mk, limit, until)
	})
}
