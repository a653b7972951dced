package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"windowctl/internal/fault"
	"windowctl/internal/protocol"
	"windowctl/internal/protocol/acdc"
	"windowctl/internal/protocol/tournament"
	"windowctl/internal/queueing"
	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

// protoTestConfig is a shared operating point for the protocol-plugin
// tests; callers override what they vary.
func protoTestConfig(seed uint64) Config {
	return Config{
		Tau: 1, M: 25, Lambda: 0.6 / 25, K: 50,
		EndTime: 30000, Warmup: 3000, Seed: seed,
	}
}

// directPolicy replicates the exact pre-registry construction of every
// protocol, including the Random baseline's historical seed derivation.
// If a registry builder drifts from this, the bit-identity test below
// catches it — the same contract the 47 engine goldens pin for the
// engines themselves.
func directPolicy(name string, cfg Config) window.Policy {
	g := window.FixedG(queueing.OptimalWindowContent())
	switch name {
	case "controlled":
		return window.Controlled{Length: g}
	case "fcfs":
		return window.FCFS{Length: g}
	case "lcfs":
		return window.LCFS{Length: g}
	case "random":
		// The pre-registry core.System.Policy derivation: run seed XOR
		// 0xC0FFEE.  Pinned — the goldens and sweep cache depend on it.
		return window.Random{Length: g, Rng: rngutil.New(cfg.Seed ^ 0xC0FFEE)}
	case tournament.Name:
		p, err := tournament.New(queueing.OptimalWindowContent(), cfg.Lambda, cfg.Seed)
		if err != nil {
			panic(err)
		}
		return p
	case acdc.Name:
		p, err := acdc.New(queueing.OptimalWindowContent(), acdc.DefaultBudget)
		if err != nil {
			panic(err)
		}
		return p
	}
	panic("unknown protocol " + name)
}

// TestProtocolRegistryBitIdentity pins the port of the resolvers onto
// the plugin registry: for every registered protocol, a run selected by
// Config.Protocol must be bit-identical (goldenFingerprint — floats by
// hex) to the same run with the directly constructed Policy value.
// Together with TestEngineGoldenEquivalence (which pins the direct
// constructions against the 47 pre-refactor goldens) this proves the
// registry path changed nothing.
func TestProtocolRegistryBitIdentity(t *testing.T) {
	for _, name := range protocol.Names() {
		switch name {
		case "controlled", "fcfs", "lcfs", "random", tournament.Name, acdc.Name:
		default:
			continue // test-registered throwaways from other files
		}
		t.Run(name, func(t *testing.T) {
			byName := protoTestConfig(9091)
			byName.Protocol = name
			gotByName, err := RunGlobal(byName)
			if err != nil {
				t.Fatalf("RunGlobal(Protocol=%q): %v", name, err)
			}
			byValue := protoTestConfig(9091)
			byValue.Policy = directPolicy(name, byValue)
			gotByValue, err := RunGlobal(byValue)
			if err != nil {
				t.Fatalf("RunGlobal(direct %q): %v", name, err)
			}
			if fp, fv := goldenFingerprint(gotByName), goldenFingerprint(gotByValue); fp != fv {
				t.Errorf("registry-built run diverged from direct construction:\n name  %s\n value %s", fp, fv)
			}
		})
	}
}

// TestProtocolConservationMatrix runs every registered zoo protocol
// through the instrumented global engine across (ρ′, K, ε): RunGlobal
// verifies both conservation invariants (message and slot-time
// conservation) at the end of every instrumented run, so a nil error is
// the assertion.  The ε > 0 column exercises the fault-injection path —
// plugins must stay conserving under erased and corrupted feedback.
func TestProtocolConservationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run not worth it in -short mode")
	}
	names := []string{"controlled", "fcfs", "lcfs", "random", tournament.Name, acdc.Name}
	for _, name := range names {
		for _, rho := range []float64{0.3, 0.75} {
			for _, km := range []float64{1, 2} {
				for _, eps := range []float64{0, 0.05} {
					label := fmt.Sprintf("%s/rho=%v/KoverM=%v/eps=%v", name, rho, km, eps)
					t.Run(label, func(t *testing.T) {
						cfg := Config{
							Protocol: name,
							Tau:      1, M: 25, Lambda: rho / 25, K: km * 25,
							EndTime: 20000, Warmup: 2000,
							Seed: rngutil.Mix64(uint64(rho*100), uint64(km), 0xBEEF),
						}
						if eps > 0 {
							cfg.Faults = fault.Config{
								Rates: fault.Rates{Erasure: eps, FalseCollision: eps, MissedCollision: eps},
								Seed:  cfg.Seed + 1,
							}
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
						if loss := rep.Loss(); math.IsNaN(loss) || loss < 0 || loss > 1 {
							t.Errorf("loss %v outside [0,1]", loss)
						}
						// Every measured message has exactly one fate.
						if rep.Decided()+rep.Censored != rep.Offered {
							t.Errorf("fates do not cover arrivals: %d decided + %d censored != %d offered",
								rep.Decided(), rep.Censored, rep.Offered)
						}
					})
				}
			}
		}
	}
}

// TestProtocolMultiStation runs every zoo protocol through the
// per-station engine, which verifies lockstep: per-station replicas
// (forked where the protocol is randomized) must make identical
// decisions, and the instrumented run must conserve.
func TestProtocolMultiStation(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs not worth it in -short mode")
	}
	for _, name := range []string{"controlled", "fcfs", "lcfs", "random", tournament.Name, acdc.Name} {
		t.Run(name, func(t *testing.T) {
			cfg := MultiConfig{
				Config: Config{
					Protocol: name,
					Tau:      1, M: 25, Lambda: 0.6 / 25, K: 50,
					EndTime: 10000, Warmup: 1000, Seed: 777,
				},
				Stations:   6,
				forceDense: true,
			}
			sm := collectorFor(cfg.Config)
			cfg.Collector = sm
			if _, err := RunMultiStation(cfg); err != nil {
				t.Fatalf("multi-station %q: %v", name, err)
			}
		})
	}
}

// TestConfigProtocolErrors pins the Config-level selection rules.
func TestConfigProtocolErrors(t *testing.T) {
	both := protoTestConfig(1)
	both.Policy = window.Controlled{Length: window.FixedG(1.1)}
	both.Protocol = "fcfs"
	if _, err := RunGlobal(both); err == nil || !strings.Contains(err.Error(), "not both") {
		t.Errorf("Policy+Protocol accepted: %v", err)
	}

	unknown := protoTestConfig(1)
	unknown.Protocol = "no-such-mac"
	if _, err := RunGlobal(unknown); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("unknown protocol accepted: %v", err)
	}

	neither := protoTestConfig(1)
	if _, err := RunGlobal(neither); err == nil {
		t.Error("config with neither Policy nor Protocol accepted")
	}
}

// admissionStub lets the clamp test drive arbitrary AdmissionDelay
// returns through a valid policy.
type admissionStub struct {
	window.Controlled
	d float64
}

func (a admissionStub) AdmissionDelay(float64) float64 { return a.d }

// TestDiscardConstraint pins the engine-side clamp of the Admission
// capability: in-range delays tighten element (4), everything else
// (non-positive, NaN, >= K) falls back to the plain deadline, so a
// buggy plugin can never panic the Tracker or loosen the constraint.
func TestDiscardConstraint(t *testing.T) {
	base := window.Controlled{Length: window.FixedG(1.1)}
	if got := discardConstraint(base, 50); got != 50 {
		t.Errorf("non-admission policy: %v, want 50", got)
	}
	cases := []struct{ d, want float64 }{
		{37.5, 37.5},      // in range: tightened
		{50, 50},          // exactly K: plain deadline
		{80, 50},          // beyond K: clamped back
		{0, 50},           // degenerate: fall back
		{-3, 50},          // negative: fall back
		{math.NaN(), 50},  // NaN: fall back
		{math.Inf(1), 50}, // +Inf: fall back
	}
	for _, c := range cases {
		if got := discardConstraint(admissionStub{base, c.d}, 50); got != c.want {
			t.Errorf("AdmissionDelay=%v: discardConstraint = %v, want %v", c.d, got, c.want)
		}
	}
	// Unconstrained runs: Budget·Inf = Inf is >= K, so the plain
	// (infinite) deadline survives.
	a, _ := acdc.New(1.1, 0.75)
	if got := discardConstraint(a, math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("K=+Inf: discardConstraint = %v, want +Inf", got)
	}
	if got := discardConstraint(a, 50); got != 37.5 {
		t.Errorf("acdc at K=50: discardConstraint = %v, want 37.5", got)
	}
}

// TestAdmissionShedding verifies the AC/DC behavior end to end: the
// sender sheds at Budget·K, so sender-side losses appear and every
// accepted message still meets the true deadline.  The controlled
// protocol at the same point keeps its losses at the same element-(4)
// horizon K, so acdc must shed no later than controlled discards.
func TestAdmissionShedding(t *testing.T) {
	run := func(name string) Report {
		cfg := protoTestConfig(4321)
		cfg.Protocol = name
		rep, err := RunGlobal(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rep
	}
	ar := run(acdc.Name)
	if ar.LostSender == 0 {
		t.Error("acdc shed nothing at ρ'=0.6 — admission control inactive?")
	}
	if ar.LostLate != 0 {
		t.Errorf("acdc lost %d messages late at the receiver; shedding at 0.75·K plus resolution should beat the deadline", ar.LostLate)
	}
	if ar.LostLate == 0 && ar.TrueWait.N() > 0 && ar.TrueWait.Max() > 50 {
		t.Errorf("transmitted wait %v exceeds K yet nothing counted late", ar.TrueWait.Max())
	}
}

// TestProtocolReplicated makes sure named selection composes with the
// replication driver: each replication materializes its own instance
// from its own derived seed (a shared *rngutil.Stream across concurrent
// replications would race).
func TestProtocolReplicated(t *testing.T) {
	for _, name := range []string{"random", tournament.Name} {
		cfg := protoTestConfig(2024)
		cfg.Protocol = name
		cfg.EndTime, cfg.Warmup = 10000, 1000
		r, err := RunReplicated(cfg, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.IsNaN(r.LossMean) || r.LossMean < 0 || r.LossMean > 1 {
			t.Errorf("%s: replicated loss %v", name, r.LossMean)
		}
	}
}
