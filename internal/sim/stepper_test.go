package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"windowctl/internal/fault"
	"windowctl/internal/metrics"
	"windowctl/internal/protocol/acdc"
	"windowctl/internal/protocol/tournament"
	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

func stepperConfig() Config {
	return Config{
		Policy: window.Controlled{Length: window.FixedG(2.6)},
		Tau:    1,
		M:      25,
		Lambda: 0.75 / 25,
		K:      100,
		Seed:   97,
	}
}

// drive pumps the stepper for the given virtual duration, injecting a
// Poisson arrival count matched to the channel time each Step consumed —
// the open-loop analogue of the internal arrival stream.
func drive(t *testing.T, s *Stepper, lambda, duration float64, seed uint64) {
	t.Helper()
	rng := rngutil.New(seed)
	end := s.Now() + duration
	for s.Now() < end {
		before := s.Now()
		if err := s.Step(); err != nil {
			t.Fatalf("Step at t=%v: %v", s.Now(), err)
		}
		elapsed := s.Now() - before
		if elapsed < 0 {
			t.Fatalf("clock went backwards: %v", elapsed)
		}
		s.Inject(int(rng.Poisson(lambda * elapsed)))
	}
}

// The stepper's books must balance exactly like a horizon run's: every
// arrival is transmitted, discarded or still resident, and the collector's
// channel-time accounting covers the whole clock.
func TestStepperConservation(t *testing.T) {
	cfg := stepperConfig()
	col := metrics.NewSlotMetrics(cfg.Tau, 200)
	cfg.Collector = col
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}

	drive(t, s, cfg.Lambda, 50000, 11)
	// Mid-run checks at step boundaries must already hold.
	if err := s.CheckNow(); err != nil {
		t.Fatalf("mid-run conservation: %v", err)
	}
	drive(t, s, cfg.Lambda, 50000, 12)

	rep, err := s.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	snap := col.Snapshot()
	if snap.Arrivals == 0 || rep.Transmissions == 0 {
		t.Fatalf("run did nothing: arrivals=%d transmissions=%d", snap.Arrivals, rep.Transmissions)
	}
	if got := snap.Transmissions + snap.Discards + int64(rep.EndBacklog); got != snap.Arrivals {
		t.Errorf("message conservation: tx %d + discards %d + resident %d = %d, want arrivals %d",
			snap.Transmissions, snap.Discards, rep.EndBacklog, got, snap.Arrivals)
	}
	if rep.Offered != rep.AcceptedInTime+rep.LostSender+rep.LostLate+rep.LostPending+rep.Censored+int64(unmeasuredResident(rep)) {
		// Offered counts measured arrivals; all of them must be classified.
		t.Errorf("report classification does not cover Offered: %+v", rep)
	}
}

// unmeasuredResident is the slack term in the measured-message balance:
// with Warmup 0 every resident message is measured, and the end-of-run
// classifier assigns each to LostPending or Censored, so the slack is 0.
func unmeasuredResident(Report) int { return 0 }

// CheckNow must hold right after Inject: queued arrivals are outside the
// collector's books until the next Step materializes them, so counting
// them as resident would report a phantom conservation violation on the
// exact sequence windowd's pump runs (Step → Inject → CheckNow).
func TestStepperCheckNowAfterInject(t *testing.T) {
	cfg := stepperConfig()
	col := metrics.NewSlotMetrics(cfg.Tau, 200)
	cfg.Collector = col
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Inject(3)
	if err := s.CheckNow(); err != nil {
		t.Fatalf("conservation falsely violated with queued arrivals: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		s.Inject(2)
		if err := s.CheckNow(); err != nil {
			t.Fatalf("step %d: conservation with queued arrivals: %v", i, err)
		}
	}
	if _, err := s.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// Materialize books the queued arrivals with the collector at once, and
// calling it just before Step leaves the run exactly as Step alone would
// have made it.
func TestStepperMaterializeBeforeStep(t *testing.T) {
	run := func(early bool) (Report, *metrics.SlotMetrics) {
		cfg := stepperConfig()
		col := metrics.NewSlotMetrics(cfg.Tau, 200)
		cfg.Collector = col
		s, err := NewStepper(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rngutil.New(3)
		for i := 0; i < 20000; i++ {
			before := s.Now()
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			n := rng.Poisson(cfg.Lambda * (s.Now() - before))
			s.Inject(n)
			if early {
				booked := col.Arrivals
				s.Materialize()
				if col.Arrivals != booked+int64(n) {
					t.Fatalf("step %d: Materialize booked %d arrivals, want %d", i, col.Arrivals-booked, n)
				}
			}
		}
		rep, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return rep, col
	}
	rep, col := run(false)
	rep2, col2 := run(true)
	if !reflect.DeepEqual(rep, rep2) {
		t.Errorf("report changed by Materialize:\n got %+v\nwant %+v", rep2, rep)
	}
	if !reflect.DeepEqual(col, col2) {
		t.Errorf("collector changed by Materialize:\n got %+v\nwant %+v", col2, col)
	}
}

// Finishing at the current clock must classify residents by their *age
// now*: a message injected moments ago is censored, not lost.
func TestStepperFinishClassifiesByAge(t *testing.T) {
	cfg := stepperConfig()
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Let the clock move, then inject fresh arrivals and finish at once:
	// their age is < τ ≪ K, so they must land in Censored.
	for i := 0; i < 10; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s.Inject(5)
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostPending != 0 {
		t.Errorf("fresh residents counted lost: LostPending=%d", rep.LostPending)
	}
	if rep.Censored != 5 {
		t.Errorf("Censored = %d, want 5", rep.Censored)
	}
}

// A finite EndTime keeps its meaning in stepped mode: Step refuses to run
// past the horizon.
func TestStepperHorizon(t *testing.T) {
	cfg := stepperConfig()
	cfg.EndTime = 20 // a few slots
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		err := s.Step()
		if err == ErrHorizon {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if steps++; steps > 1000 {
			t.Fatal("horizon never reached")
		}
	}
	if s.Now() < 20 {
		t.Errorf("stopped at t=%v before the horizon", s.Now())
	}
	if _, err := s.Finish(); err != nil {
		t.Errorf("Finish after horizon: %v", err)
	}
}

// The element-(4) shed fraction of a stepped run fed open-loop Poisson
// counts must agree with the batch simulator's internal Poisson stream at
// the same operating point — the acceptance criterion that windowd's
// shedding is the same control law, not a lookalike.
func TestStepperShedMatchesBatch(t *testing.T) {
	cfg := stepperConfig()
	cfg.M = 10
	cfg.K = cfg.M * cfg.Tau // K/M = 1: heavy element-(4) shedding
	cfg.Lambda = 0.9 / (cfg.M * cfg.Tau)
	cfg.EndTime = 300000

	batch, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}

	scfg := cfg
	scfg.EndTime = 0
	s, err := NewStepper(scfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, cfg.Lambda, 300000, 23)
	stepped, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}

	shed := func(r Report) float64 { return float64(r.LostSender) / float64(r.Offered) }
	b, sf := shed(batch), shed(stepped)
	if b <= 0 || sf <= 0 {
		t.Fatalf("expected shedding at K/M=1: batch=%v stepped=%v", b, sf)
	}
	if diff := math.Abs(b - sf); diff > 0.03 {
		t.Errorf("shed fraction diverges: batch %.4f vs stepped %.4f (|Δ| = %.4f > 0.03)", b, sf, diff)
	}
}

// The ingest→schedule hot path inherits the engine's zero-allocation
// contract: once warm, Inject+Step allocates nothing.
func TestStepperZeroAlloc(t *testing.T) {
	cfg := stepperConfig()
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rngutil.New(5)
	pump := func() {
		before := s.Now()
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		s.Inject(int(rng.Poisson(cfg.Lambda * (s.Now() - before))))
	}
	for i := 0; i < 200000; i++ {
		pump()
	}
	if avg := testing.AllocsPerRun(100000, pump); avg != 0 {
		t.Fatalf("steady-state Inject+Step allocates %v times per run; the ingest→schedule hot path must be allocation-free", avg)
	}
}

// Stamps handed to the pending queue must be strictly increasing even
// under burst injection far beyond one arrival per slot — the queue
// panics on decreasing keys and collisions between equal keys would
// split forever, so this is load-bearing for windowd under saturation.
func TestStepperBurstInjection(t *testing.T) {
	cfg := stepperConfig()
	cfg.MaxBacklog = 1 << 21
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Inject(1 << 20) // a million arrivals in one slot
	for i := 0; i < 2000; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("step %d under burst: %v", i, err)
		}
	}
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transmissions == 0 && rep.LostSender == 0 {
		t.Error("burst produced no protocol activity")
	}
}

// IdleRun must refuse — take no slot, change nothing —
// whenever the next Step is not certainly one whole-span idle probe.
// Each case is checked against a twin that never called IdleRun: both
// are then driven identically and must finish identically.
func TestStepperIdleRunRefuses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
		setup func(*Stepper)
	}{
		{"pending", nil, func(s *Stepper) { s.Inject(3); s.Materialize() }},
		{"queued", nil, func(s *Stepper) { s.Inject(1) }},
		{"random", func(c *Config) { c.Policy = directPolicy("random", *c) }, nil},
		{"tournament", func(c *Config) { c.Policy = directPolicy(tournament.Name, *c) }, nil},
		{"estimator", func(c *Config) { c.RateEstimator = window.NewRateEstimator(c.Lambda, 200*c.M*c.Tau) }, nil},
		{"faults", func(c *Config) { c.Faults = fault.Config{Rates: fault.Rates{Erasure: 0.05}, Seed: 42} }, nil},
		{"horizon", func(c *Config) { c.EndTime = 1 }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*Stepper, *metrics.SlotMetrics) {
				cfg := stepperConfig()
				if tc.tweak != nil {
					tc.tweak(&cfg)
				}
				col := metrics.NewSlotMetrics(cfg.Tau, 200)
				cfg.Collector = col
				s, err := NewStepper(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The first Step spends the start-up slot; after it the
				// controlled engine of stepperConfig would take an idle run.
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
				if tc.setup != nil {
					tc.setup(s)
				}
				return s, col
			}
			a, colA := build()
			b, colB := build()
			now, backlog := a.Now(), a.Backlog()
			if slots := a.IdleRun(100, math.Inf(1)); slots != 0 {
				t.Fatalf("IdleRun = %d, want 0", slots)
			}
			if a.Now() != now || a.Backlog() != backlog {
				t.Fatalf("refused IdleRun moved the engine: now %v→%v, backlog %d→%d", now, a.Now(), backlog, a.Backlog())
			}
			if tc.name == "horizon" {
				return // neither engine can step any further
			}
			drive(t, a, stepperConfig().Lambda, 5000, 9)
			drive(t, b, stepperConfig().Lambda, 5000, 9)
			repA, errA := a.Finish()
			repB, errB := b.Finish()
			if errA != nil || errB != nil {
				t.Fatalf("Finish: %v, %v", errA, errB)
			}
			if !reflect.DeepEqual(repA, repB) || !reflect.DeepEqual(colA, colB) {
				t.Errorf("a refused IdleRun changed the run:\n got %+v\nwant %+v", repA, repB)
			}
		})
	}
	// And it refuses nothing else: the same warm engine takes the slots,
	// up to max, and stops at a finite horizon exactly where Step would.
	cfg := stepperConfig()
	cfg.EndTime = 10.5
	s, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil { // the start-up slot: now = 1
		t.Fatal(err)
	}
	none := math.Inf(1) // no arrival ends the run
	if slots := s.IdleRun(7, none); slots != 7 {
		t.Errorf("IdleRun on an empty controlled engine took %d slots, want max = 7", slots)
	}
	if slots := s.IdleRun(100, none); slots != 3 || s.Step() != ErrHorizon {
		t.Errorf("IdleRun took %d slots to the horizon at 10.5 from t = 8, want 3 and then ErrHorizon", slots)
	}
}

// Otherwise IdleRun equals that many Steps: an engine that takes every
// idle run it can, capped at varying lengths, and one that only Steps,
// fed the same release draws, reach the same clock and cleared region
// after every run, and the same report and collector at the end, bit for
// bit at any τ.  The idle engine draws its releases slot by slot ahead of
// the run, from the slot clock's times, on a clone of its stream, and ends
// the run exactly on the time of the slot after the first that releases
// anything; the clone replaces the stream once the run is taken.
func TestStepperIdleRunMatchesSteps(t *testing.T) {
	for _, name := range []string{"controlled", "fcfs", "lcfs", acdc.Name} {
		for _, tau := range []float64{1, 0.37} {
			t.Run(fmt.Sprintf("%s/tau=%v", name, tau), func(t *testing.T) {
				cfg := protoTestConfig(31)
				cfg.Tau, cfg.Lambda, cfg.K = tau, 0.75/(cfg.M*tau), 2*cfg.M*tau
				cfg.EndTime, cfg.Warmup = 0, 0
				cfg.Policy = directPolicy(name, cfg)
				build := func() (*Stepper, *metrics.SlotMetrics, *rngutil.Stream) {
					c := cfg
					col := metrics.NewSlotMetrics(c.Tau, 200)
					c.Collector = col
					s, err := NewStepper(c)
					if err != nil {
						t.Fatal(err)
					}
					return s, col, rngutil.New(77)
				}
				a, colA, relA := build()
				b, colB, relB := build()

				step := func(s *Stepper, rel *rngutil.Stream) {
					before := s.Now()
					if err := s.Step(); err != nil {
						t.Fatal(err)
					}
					s.Inject(rel.Poisson(cfg.Lambda * (s.Now() - before)))
				}
				// ahead draws the releases of the slots from now on, up
				// to limit of them, and stops at the first that releases
				// anything: it returns the run's end and its last
				// slot's count.
				ahead := func(rel *rngutil.Stream, limit int) (until float64, want, k int) {
					g := a.g
					for j := int64(0); j < int64(limit); j++ {
						if k = rel.Poisson(cfg.Lambda * (g.at(g.k+j+1) - g.at(g.k+j))); k > 0 {
							return g.at(g.k + j + 1), int(j + 1), k
						}
					}
					return math.Inf(1), limit, 0
				}
				runs := 0
				for i := 0; i < 40000; i++ {
					rel := relA.Clone()
					until, want, k := ahead(rel, 1+i%37)
					slots := a.IdleRun(1+i%37, until)
					if slots == 0 {
						step(a, relA)
						step(b, relB)
						continue
					}
					if slots != want {
						t.Fatalf("IdleRun took %d slots, want %d", slots, want)
					}
					relA = rel
					a.Inject(k)
					for j := 0; j < slots; j++ {
						step(b, relB)
					}
					if a.Now() != b.Now() {
						t.Fatalf("Now() = %v after a %d-slot idle run, %v after as many Steps", a.Now(), slots, b.Now())
					}
					if ca, cb := a.g.tracker.AppendCleared(nil), b.g.tracker.AppendCleared(nil); !reflect.DeepEqual(ca, cb) {
						t.Fatalf("cleared region %#v after a %d-slot idle run, %#v after as many Steps", ca, slots, cb)
					}
					runs++
				}
				if runs == 0 {
					t.Fatal("no idle run was taken")
				}
				repA, errA := a.Finish()
				repB, errB := b.Finish()
				if errA != nil || errB != nil {
					t.Fatalf("Finish: %v, %v", errA, errB)
				}
				if !reflect.DeepEqual(repA, repB) {
					t.Errorf("report diverged:\n got %+v\nwant %+v", repA, repB)
				}
				if !reflect.DeepEqual(colA, colB) {
					t.Errorf("collector diverged:\n got %+v\nwant %+v", colA.Snapshot(), colB.Snapshot())
				}
			})
		}
	}
}
