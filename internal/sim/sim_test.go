package sim

import (
	"math"
	"reflect"
	"testing"

	"windowctl/internal/metrics"
	"windowctl/internal/queueing"
	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

// gStar is the shared element-(2) optimum.
var gStar = queueing.OptimalWindowContent()

// randomStream builds the common random sequence the Random policy shares
// across stations.
func randomStream(seed uint64) *rngutil.Stream { return rngutil.New(seed) }

func controlledCfg(rhoPrime, m, kOverM float64, seed uint64) Config {
	return Config{
		Policy: window.Controlled{Length: window.FixedG(gStar)},
		Tau:    1, M: m, Lambda: rhoPrime / m, K: kOverM * m,
		EndTime: 1.5e6 * m / 25, Warmup: 5e4 * m / 25, Seed: seed,
	}
}

func TestGlobalMatchesAnalytic(t *testing.T) {
	// The headline corroboration of §4.2: simulated loss tracks eq. 4.7.
	// The analytic model excludes a message's own windowing time from its
	// waiting time (the paper's approximation), so simulation runs
	// slightly above it; we accept 35% relative + 0.01 absolute slack.
	cases := []struct{ rhoPrime, m, kOverM float64 }{
		{0.25, 25, 1}, {0.50, 25, 2}, {0.75, 25, 1}, {0.75, 25, 4},
	}
	for _, c := range cases {
		cfg := controlledCfg(c.rhoPrime, c.m, c.kOverM, 1234)
		rep, err := RunGlobal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		model := queueing.ProtocolModel{Tau: 1, M: c.m, RhoPrime: c.rhoPrime}
		res, err := model.ControlledLoss(c.kOverM * c.m)
		if err != nil {
			t.Fatal(err)
		}
		diff := math.Abs(rep.Loss() - res.Loss)
		if diff > 0.35*res.Loss+0.01 {
			t.Errorf("rho'=%v K/M=%v: sim %.4f vs analytic %.4f", c.rhoPrime, c.kOverM, rep.Loss(), res.Loss)
		}
	}
}

func TestGlobalAccountingIdentity(t *testing.T) {
	cfg := controlledCfg(0.5, 25, 2, 5)
	cfg.EndTime = 3e5
	rep, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != rep.Decided()+rep.Censored {
		t.Fatalf("accounting broken: offered=%d decided=%d censored=%d",
			rep.Offered, rep.Decided(), rep.Censored)
	}
	if rep.Offered < 1000 {
		t.Fatalf("too few offered messages: %d", rep.Offered)
	}
}

func TestControlledRarelyLate(t *testing.T) {
	// Under the controlled policy a transmitted message can only be late
	// by its own windowing time (excluded from the paper's waiting-time
	// definition), so late transmissions must be a small minority of all
	// losses and of all transmissions.
	cfg := controlledCfg(0.75, 25, 1, 6)
	cfg.EndTime = 5e5
	rep, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lateFrac := float64(rep.LostLate) / float64(rep.Decided())
	if lateFrac > 0.05 {
		t.Fatalf("late fraction %v too high for controlled policy", lateFrac)
	}
	// Any late message is late by at most the resolution of its own
	// process; the bulk of loss must be sender-side discard.
	if rep.LostSender == 0 {
		t.Fatal("no sender discards under overloaded controlled policy")
	}
}

func TestGlobalDeterministicReplay(t *testing.T) {
	cfg := controlledCfg(0.5, 25, 2, 77)
	cfg.EndTime = 2e5
	a, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offered != b.Offered || a.Lost() != b.Lost() || a.Transmissions != b.Transmissions ||
		a.TrueWait.Mean() != b.TrueWait.Mean() {
		t.Fatalf("replay differs: %v vs %v", a, b)
	}
}

func TestGlobalSeedSensitivity(t *testing.T) {
	cfg := controlledCfg(0.5, 25, 2, 1)
	cfg.EndTime = 2e5
	a, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offered == b.Offered && a.TrueWait.Mean() == b.TrueWait.Mean() {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestIdleFastForwardIsExact requires the idle fast-forward to leave the
// whole report bit-identical to probe-by-probe execution, for every
// deterministic policy and at slot times whose repeated sums are inexact
// (0.37, 0.1, 3.3) as well as at τ = 1.  reflect.DeepEqual follows
// Report.WaitHist, so the histograms are compared by content.  The
// collectors must match bit for bit too: one that books a skip's idle
// slots as a record of their own reads a different IdleTime at τ = 0.37
// (0x1.3ced999999998p+13 against 0x1.3ced999999e23p+13 slot by slot at
// ρ′ = 0.3, seed 1), though both count the same idle slots.
func TestIdleFastForwardIsExact(t *testing.T) {
	policies := []window.Policy{
		window.Controlled{Length: window.FixedG(gStar)},
		window.FCFS{Length: window.FixedG(gStar)},
		window.LCFS{Length: window.FixedG(gStar)},
		window.ControlledVariant{Length: window.FixedG(gStar), Side: window.Newer, PositionLag: 2},
	}
	for _, tau := range []float64{1, 0.37, 0.1, 3.3} {
		for _, pol := range policies {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := Config{
					Policy: pol, Tau: tau, M: 25, Lambda: 0.3 / (25 * tau), K: 50 * tau,
					EndTime: 4e4 * tau, Warmup: 2e3 * tau, Seed: seed,
				}
				fastCol := metrics.NewSlotMetrics(tau, 64)
				cfg.Collector = fastCol
				fast, err := RunGlobal(cfg)
				if err != nil {
					t.Fatal(err)
				}
				slowCol := metrics.NewSlotMetrics(tau, 64)
				cfg.Collector = slowCol
				cfg.DisableFastForward = true
				slow, err := RunGlobal(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fast, slow) {
					t.Errorf("tau=%v %s seed %d: fast-forward diverged from probe-by-probe execution:\n fast: %s\n slow: %s",
						tau, pol.Name(), seed, goldenFingerprint(fast), goldenFingerprint(slow))
				}
				if !reflect.DeepEqual(fastCol, slowCol) {
					t.Errorf("tau=%v %s seed %d: fast-forward's collector diverged from probe-by-probe execution's:\n fast: %+v\n slow: %+v",
						tau, pol.Name(), seed, fastCol.Snapshot(), slowCol.Snapshot())
				}
			}
		}
	}
}

func TestWaitHistogramConsistentWithLoss(t *testing.T) {
	// For the uncontrolled FCFS baseline every loss is a late
	// transmission (plus end-of-run pending), so the histogram tail at K
	// must approximate the loss.
	cfg := controlledCfg(0.5, 25, 2, 9)
	cfg.Policy = window.FCFS{Length: window.FixedG(gStar)}
	cfg.EndTime = 8e5
	rep, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostSender != 0 {
		t.Fatal("FCFS baseline discarded at sender")
	}
	tail := rep.WaitHist.Tail(cfg.K)
	lateFrac := float64(rep.LostLate) / float64(rep.AcceptedInTime+rep.LostLate)
	if math.Abs(tail-lateFrac) > 0.01 {
		t.Fatalf("histogram tail %v vs late fraction %v", tail, lateFrac)
	}
}

func TestFCFSSimMatchesBenes(t *testing.T) {
	model := queueing.ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.5}
	k := 3.0 * 25
	want, err := model.FCFSLoss(k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := controlledCfg(0.5, 25, 3, 10)
	cfg.Policy = window.FCFS{Length: window.FixedG(gStar)}
	rep, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Loss()-want) > 0.35*want+0.01 {
		t.Fatalf("FCFS sim %.4f vs Beneš %.4f", rep.Loss(), want)
	}
}

func TestLCFSSimMatchesTransform(t *testing.T) {
	model := queueing.ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.5}
	k := 2.0 * 25
	want, err := model.LCFSLoss(k)
	if err != nil {
		t.Fatal(err)
	}
	cfg := controlledCfg(0.5, 25, 2, 11)
	cfg.Policy = window.LCFS{Length: window.FixedG(gStar)}
	rep, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Loss()-want) > 0.35*want+0.015 {
		t.Fatalf("LCFS sim %.4f vs transform %.4f", rep.Loss(), want)
	}
}

func TestControlledBeatsBaselinesInSimulation(t *testing.T) {
	// The paper's central claim, measured rather than modelled.
	base := controlledCfg(0.75, 25, 2, 12)
	base.EndTime = 8e5
	ctrl, err := RunGlobal(base)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := base
	fcfg.Policy = window.FCFS{Length: window.FixedG(gStar)}
	fc, err := RunGlobal(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	lcfg := base
	lcfg.Policy = window.LCFS{Length: window.FixedG(gStar)}
	lc, err := RunGlobal(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Loss() >= fc.Loss() {
		t.Fatalf("controlled %.4f not better than FCFS %.4f", ctrl.Loss(), fc.Loss())
	}
	if ctrl.Loss() >= lc.Loss() {
		t.Fatalf("controlled %.4f not better than LCFS %.4f", ctrl.Loss(), lc.Loss())
	}
}

func TestRandomPolicyRuns(t *testing.T) {
	cfg := controlledCfg(0.5, 25, 2, 13)
	cfg.Policy = window.Random{Length: window.FixedG(gStar), Rng: randomStream(13)}
	cfg.EndTime = 2e5
	rep, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transmissions == 0 {
		t.Fatal("random policy transmitted nothing")
	}
}

func TestCapacityBoundary(t *testing.T) {
	// The analytic capacity (load at which service including overhead
	// saturates) must separate stable from unstable FCFS operation.
	capacity := queueing.Capacity(25)
	below := Config{
		Policy: window.FCFS{Length: window.FixedG(gStar)},
		Tau:    1, M: 25, Lambda: 0.95 * capacity / 25, K: 1e6,
		EndTime: 8e5, Warmup: 1e5, Seed: 71, MaxBacklog: 3000,
	}
	if _, err := RunGlobal(below); err != nil {
		t.Fatalf("5%% below capacity should be stable: %v", err)
	}
	above := below
	above.Lambda = 1.08 * capacity / 25
	above.EndTime = 4e6
	if _, err := RunGlobal(above); err == nil {
		t.Fatal("8% above capacity should blow the backlog bound")
	}
}

func TestBacklogAbort(t *testing.T) {
	// An overloaded baseline (ρ > 1 including overhead) must trip the
	// backlog guard rather than run forever.
	cfg := controlledCfg(1.3, 25, 2, 14)
	cfg.Policy = window.FCFS{Length: window.FixedG(gStar)}
	cfg.MaxBacklog = 200
	cfg.EndTime = 1e6
	if _, err := RunGlobal(cfg); err == nil {
		t.Fatal("overload did not abort")
	}
}

func TestConfigValidation(t *testing.T) {
	good := controlledCfg(0.5, 25, 2, 1)
	cases := []func(*Config){
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Policy = window.Controlled{} }, // missing Length
		func(c *Config) { c.Tau = 0 },
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Warmup = c.EndTime },
		func(c *Config) { c.Warmup = -1 },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if _, err := RunGlobal(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestMultiStationMatchesGlobal(t *testing.T) {
	base := controlledCfg(0.75, 25, 2, 21)
	base.EndTime = 4e5
	mcfg := MultiConfig{Config: base, Stations: 16}
	mrep, err := RunMultiStation(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	grep, err := RunGlobal(base)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mrep.Loss()-grep.Loss()) > 0.02 {
		t.Fatalf("multi %.4f vs global %.4f", mrep.Loss(), grep.Loss())
	}
	if math.Abs(mrep.Utilization-grep.Utilization) > 0.02 {
		t.Fatalf("utilization: multi %.4f vs global %.4f", mrep.Utilization, grep.Utilization)
	}
	if math.Abs(mrep.TrueWait.Mean()-grep.TrueWait.Mean()) > 0.1*grep.TrueWait.Mean() {
		t.Fatalf("mean wait: multi %.4f vs global %.4f", mrep.TrueWait.Mean(), grep.TrueWait.Mean())
	}
}

func TestMultiStationLockstepAllPolicies(t *testing.T) {
	policies := []window.Policy{
		window.Controlled{Length: window.FixedG(gStar)},
		window.FCFS{Length: window.FixedG(gStar)},
		window.LCFS{Length: window.FixedG(gStar)},
		window.Random{Length: window.FixedG(gStar), Rng: randomStream(3)},
	}
	for _, p := range policies {
		cfg := MultiConfig{
			Config: Config{
				Policy: p, Tau: 1, M: 25, Lambda: 0.02, K: 50,
				EndTime: 5e4, Warmup: 5e3, Seed: 31,
			},
			// The per-station engine, which verifies lockstep.
			Stations: 8, forceDense: true,
		}
		if _, err := RunMultiStation(cfg); err != nil {
			t.Fatalf("%s: lockstep broken: %v", p.Name(), err)
		}
	}
}

func TestMultiStationSingleStationDegenerate(t *testing.T) {
	// One station holding everything: every multi-message window jams,
	// but the protocol must still deliver.
	cfg := MultiConfig{
		Config: Config{
			Policy: window.Controlled{Length: window.FixedG(gStar)},
			Tau:    1, M: 25, Lambda: 0.02, K: 50,
			EndTime: 1e5, Warmup: 1e4, Seed: 41,
		},
		Stations: 1,
	}
	rep, err := RunMultiStation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transmissions == 0 {
		t.Fatal("single-station network transmitted nothing")
	}
	if rep.Offered != rep.Decided()+rep.Censored {
		t.Fatal("accounting identity broken")
	}
}

func TestMultiStationValidation(t *testing.T) {
	cfg := MultiConfig{Config: controlledCfg(0.5, 25, 2, 1), Stations: 0}
	if _, err := RunMultiStation(cfg); err == nil {
		t.Fatal("zero stations accepted")
	}
}

func TestRunReplicated(t *testing.T) {
	cfg := controlledCfg(0.75, 25, 1, 44)
	cfg.EndTime = 1e5
	cfg.Warmup = 1e4
	r, err := RunReplicated(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 6 {
		t.Fatalf("runs = %d", len(r.Runs))
	}
	// Replications differ (distinct seeds) but agree statistically.
	if r.Runs[0].Offered == r.Runs[1].Offered && r.Runs[0].Loss() == r.Runs[1].Loss() {
		t.Fatal("replications identical — seeds not varied")
	}
	if r.LossHalfWidth <= 0 || r.LossHalfWidth > 0.05 {
		t.Fatalf("loss CI half width %v", r.LossHalfWidth)
	}
	// The analytic value should sit within a few half-widths.
	model := queueing.ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.75}
	an, err := model.ControlledLoss(25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.LossMean-an.Loss) > 6*r.LossHalfWidth+0.03 {
		t.Fatalf("replicated loss %v ± %v vs analytic %v", r.LossMean, r.LossHalfWidth, an.Loss)
	}
	if _, err := RunReplicated(cfg, 1); err == nil {
		t.Fatal("single replication accepted")
	}
	bad := cfg
	bad.Tau = 0
	if _, err := RunReplicated(bad, 3); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestReportStringAndCI(t *testing.T) {
	cfg := controlledCfg(0.5, 25, 1, 3)
	cfg.EndTime = 1e5
	rep, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
	lo, hi := rep.LossCI(0.95)
	if lo > rep.Loss() || hi < rep.Loss() {
		t.Fatalf("CI [%v, %v] does not contain %v", lo, hi, rep.Loss())
	}
}
