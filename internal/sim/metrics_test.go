package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"windowctl/internal/metrics"
	"windowctl/internal/window"
)

func collectorFor(cfg Config) *metrics.SlotMetrics {
	return metrics.NewSlotMetrics(cfg.Tau, int(cfg.K/cfg.Tau)+64)
}

// TestConservationMatrix runs the global simulator instrumented across a
// (ρ′, M, K, discipline) matrix.  RunGlobal itself verifies both
// conservation invariants at the end of every instrumented run and fails
// on violation, so a nil error is the assertion; the matrix makes sure
// the invariants hold across loads, constraints and policies (with and
// without element-(4) discards, with and without the idle fast-forward).
func TestConservationMatrix(t *testing.T) {
	for _, rho := range []float64{0.25, 0.75} {
		for _, m := range []float64{25, 100} {
			for _, km := range []float64{1, 4} {
				for _, disc := range []string{"controlled", "fcfs", "lcfs"} {
					name := fmt.Sprintf("rho=%v/M=%v/KoverM=%v/%s", rho, m, km, disc)
					t.Run(name, func(t *testing.T) {
						g := window.FixedG(1.1)
						var pol window.Policy
						switch disc {
						case "controlled":
							pol = window.Controlled{Length: g}
						case "fcfs":
							pol = window.FCFS{Length: g}
						case "lcfs":
							pol = window.LCFS{Length: g}
						}
						cfg := Config{
							Policy: pol, Tau: 1, M: m, Lambda: rho / m,
							K: km * m, EndTime: 4e4, Warmup: 2e3,
							Seed: 0xFACE ^ uint64(int(rho*100)<<8) ^ uint64(int(km)),
						}
						sm := collectorFor(cfg)
						cfg.Collector = sm
						rep, err := RunGlobal(cfg)
						if err != nil {
							t.Fatalf("instrumented run failed: %v", err)
						}
						if sm.Arrivals == 0 || sm.Transmissions == 0 {
							t.Fatalf("collector saw nothing: %+v", sm.Snapshot())
						}
						// The collector sees every slot the report counts (it
						// additionally sees the pre-protocol startup slots).
						if sm.IdleSlots < rep.IdleSlots {
							t.Errorf("collector idle slots %d < report %d", sm.IdleSlots, rep.IdleSlots)
						}
						if sm.CollisionSlots != rep.CollisionSlots {
							t.Errorf("collector collision slots %d != report %d", sm.CollisionSlots, rep.CollisionSlots)
						}
						if sm.Transmissions != rep.Transmissions {
							t.Errorf("collector transmissions %d != report %d", sm.Transmissions, rep.Transmissions)
						}
					})
				}
			}
		}
	}
}

// lossyCollector drops one arrival from every reported batch — a
// deliberately broken Collector standing in for an accounting bug.  The
// embedded SlotMetrics still provides Checkpoint/CheckConservation, so
// the simulators verify it.
type lossyCollector struct{ *metrics.SlotMetrics }

func (l lossyCollector) RecordArrivals(n int64) { l.SlotMetrics.RecordArrivals(n - 1) }

// TestConservationDetectsViolation makes sure the end-of-run check is
// real: a collector that misses events during the run must fail it.
func TestConservationDetectsViolation(t *testing.T) {
	cfg := Config{
		Policy: window.Controlled{Length: window.FixedG(1.1)},
		Tau:    1, M: 25, Lambda: 0.02, K: 50, EndTime: 1e4, Seed: 7,
	}
	cfg.Collector = lossyCollector{collectorFor(cfg)}
	_, err := RunGlobal(cfg)
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("run with lossy collector returned %v, want conservation error", err)
	}
	// A dirty-but-consistent collector is fine: pre-run counts are
	// checkpointed away (the sequential-reuse pattern of cmd/sweep).
	sm := collectorFor(cfg)
	sm.RecordArrivals(3)
	cfg.Collector = sm
	if _, err := RunGlobal(cfg); err != nil {
		t.Fatalf("checkpointed reuse failed: %v", err)
	}
}

// TestMetricsReportAgreement pins the exact relationship between the
// collector's channel-level accounting and the warmup-filtered Report:
// with Warmup = 0 the two views count the same messages, so every
// message counter — and therefore the loss — agrees exactly.
func TestMetricsReportAgreement(t *testing.T) {
	for _, disc := range []string{"controlled", "fcfs"} {
		t.Run(disc, func(t *testing.T) {
			g := window.FixedG(1.1)
			var pol window.Policy = window.Controlled{Length: g}
			if disc == "fcfs" {
				pol = window.FCFS{Length: g}
			}
			cfg := Config{
				Policy: pol, Tau: 1, M: 25, Lambda: 0.03, K: 50,
				EndTime: 5e4, Warmup: 0, Seed: 99,
			}
			sm := collectorFor(cfg)
			cfg.Collector = sm
			rep, err := RunGlobal(cfg)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if sm.Arrivals != rep.Offered {
				t.Errorf("arrivals %d != offered %d (every arrival is measured at Warmup=0)",
					sm.Arrivals, rep.Offered)
			}
			if sm.Accepted != rep.AcceptedInTime {
				t.Errorf("accepted %d != report %d", sm.Accepted, rep.AcceptedInTime)
			}
			if sm.Late != rep.LostLate {
				t.Errorf("late %d != report %d", sm.Late, rep.LostLate)
			}
			if sm.Discards != rep.LostSender {
				t.Errorf("discards %d != report %d", sm.Discards, rep.LostSender)
			}
			if sm.PendingLost != rep.LostPending || sm.PendingCensored != rep.Censored {
				t.Errorf("pending %d/%d != report %d/%d",
					sm.PendingLost, sm.PendingCensored, rep.LostPending, rep.Censored)
			}
			if sm.Loss() != rep.Loss() {
				t.Errorf("counter loss %v != report loss %v (must be exact at Warmup=0)",
					sm.Loss(), rep.Loss())
			}
			if rep.Lost() > 0 && sm.Lost() != rep.Lost() {
				t.Errorf("lost %d != report %d", sm.Lost(), rep.Lost())
			}
		})
	}
}

// TestMultiStationMetrics instruments the distributed simulator: the
// conservation invariants must hold over channel/station-level events,
// only one station's resolver may report splits, and at Warmup = 0 the
// message counters agree with the report exactly.
func TestMultiStationMetrics(t *testing.T) {
	cfg := MultiConfig{
		Config: Config{
			Policy: window.Controlled{Length: window.FixedG(1.1)},
			Tau:    1, M: 25, Lambda: 0.03, K: 50,
			EndTime: 2e4, Warmup: 0, Seed: 4242,
		},
		Stations: 5,
	}
	sm := collectorFor(cfg.Config)
	cfg.Collector = sm
	rep, err := RunMultiStation(cfg)
	if err != nil {
		t.Fatalf("instrumented multi-station run failed: %v", err)
	}
	if sm.Splits == 0 {
		t.Error("no window splits observed at ρ'=0.75 — resolver not instrumented?")
	}
	// The collector also sees the start-up corner slot, an idle slot in
	// which no probe runs, which the report's IdleSlots does not count.
	if sm.CollisionSlots != rep.CollisionSlots || sm.IdleSlots != rep.IdleSlots+1 {
		t.Errorf("slot counts %d/%d != report %d+1/%d (channel records every slot here)",
			sm.IdleSlots, sm.CollisionSlots, rep.IdleSlots, rep.CollisionSlots)
	}
	if sm.Accepted != rep.AcceptedInTime || sm.Late != rep.LostLate ||
		sm.Discards != rep.LostSender || sm.PendingLost != rep.LostPending {
		t.Errorf("message counters disagree with report:\n%+v\n%+v", sm.Snapshot(), rep)
	}
	if sm.Loss() != rep.Loss() {
		t.Errorf("counter loss %v != report loss %v", sm.Loss(), rep.Loss())
	}
}

// TestReplicatedRejectsCollector: a shared collector would be written by
// concurrent replications, so RunReplicated must refuse it.
func TestReplicatedRejectsCollector(t *testing.T) {
	cfg := Config{
		Policy: window.Controlled{Length: window.FixedG(1.1)},
		Tau:    1, M: 25, Lambda: 0.02, K: 50, EndTime: 1e3, Seed: 1,
	}
	cfg.Collector = new(metrics.SlotMetrics)
	if _, err := RunReplicated(cfg, 2); err == nil {
		t.Fatal("RunReplicated accepted a shared Collector")
	}
}

// TestInstrumentationPreservesResults pins that observing a run does not
// perturb it: the report of an instrumented run is identical to the
// uninstrumented one (same seed, same everything).
func TestInstrumentationPreservesResults(t *testing.T) {
	cfg := Config{
		Policy: window.Controlled{Length: window.FixedG(1.1)},
		Tau:    1, M: 25, Lambda: 0.03, K: 50, EndTime: 3e4, Warmup: 1e3, Seed: 321,
	}
	plain, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector = collectorFor(cfg)
	instrumented, err := RunGlobal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Loss() != instrumented.Loss() || plain.Offered != instrumented.Offered ||
		plain.Transmissions != instrumented.Transmissions ||
		plain.TrueWait.Mean() != instrumented.TrueWait.Mean() {
		t.Errorf("instrumentation changed the run:\nplain        %v\ninstrumented %v", plain, instrumented)
	}
}

// BenchmarkCollectorOverhead compares an uninstrumented run against the
// no-op collector (the default inside the engines) and full SlotMetrics
// accounting; the nil→Nop difference is the cost every existing caller
// pays for the observability layer and must stay at noise level.
func BenchmarkCollectorOverhead(b *testing.B) {
	base := Config{
		Policy: window.Controlled{Length: window.FixedG(1.1)},
		Tau:    1, M: 25, Lambda: 0.03, K: 50, EndTime: 2e4, Warmup: 1e3, Seed: 5,
	}
	run := func(b *testing.B, mk func() metrics.Collector) {
		var loss float64
		for i := 0; i < b.N; i++ {
			cfg := base
			if mk != nil {
				cfg.Collector = mk()
			}
			rep, err := RunGlobal(cfg)
			if err != nil {
				b.Fatal(err)
			}
			loss = rep.Loss()
		}
		if math.IsNaN(loss) {
			b.Fatal("NaN loss")
		}
	}
	b.Run("uninstrumented", func(b *testing.B) { run(b, nil) })
	b.Run("nop", func(b *testing.B) { run(b, func() metrics.Collector { return metrics.Nop{} }) })
	b.Run("slotmetrics", func(b *testing.B) {
		run(b, func() metrics.Collector { return collectorFor(base) })
	})
}
