// Package core is the high-level entry point of the library: it describes
// one operating point of the time-window multiple-access protocol in the
// paper's own parameterization (τ, M, ρ′, K) and exposes every analysis
// the reproduction supports — the analytic loss models of §4, the event
// simulators, the semi-Markov decision model of §3, and scripted traces.
//
// The package wires together the specialized internal packages; see
// windowctl (the module root) for the re-exported public surface.
package core

import (
	"fmt"
	"math"
	"strings"

	"windowctl/internal/dist"
	"windowctl/internal/fault"
	"windowctl/internal/metrics"
	"windowctl/internal/protocol"
	"windowctl/internal/protocol/acdc"
	"windowctl/internal/protocol/tournament"
	"windowctl/internal/queueing"
	"windowctl/internal/sim"
	"windowctl/internal/smdp"
	"windowctl/internal/trace"
	"windowctl/internal/window"

	// Link the full protocol zoo into the registry, so every protocol is
	// reachable by name from System.Protocol, the sweep discipline axis
	// and the CLIs' -protocol flag.
	_ "windowctl/internal/protocol/zoo"
)

// Discipline selects the scheduling discipline — the paper's controlled
// protocol or one of the uncontrolled [Kurose 83] baselines.
type Discipline int

// Discipline values.
const (
	// Controlled is the paper's optimal policy: Theorem-1 window
	// placement and splitting plus sender-side discard (element (4)).
	Controlled Discipline = iota
	// FCFS is the uncontrolled global-FCFS baseline.
	FCFS
	// LCFS is the uncontrolled global-LCFS baseline.
	LCFS
	// Random is the uncontrolled random-order baseline.
	Random
	// Tournament is Galtier's constant-window tournament MAC
	// (internal/protocol/tournament).
	Tournament
	// ACDC is admission-control delay-constrained random access
	// (internal/protocol/acdc).
	ACDC
)

// String implements fmt.Stringer.  The returned name doubles as the
// protocol-registry selector for the discipline.
func (d Discipline) String() string {
	switch d {
	case Controlled:
		return "controlled"
	case FCFS:
		return "fcfs"
	case LCFS:
		return "lcfs"
	case Random:
		return "random"
	case Tournament:
		return tournament.Name
	case ACDC:
		return acdc.Name
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// Disciplines returns every named discipline, in enum order.  The list
// is what ParseDiscipline accepts and what the sweep discipline axis
// can range over.
func Disciplines() []Discipline {
	return []Discipline{Controlled, FCFS, LCFS, Random, Tournament, ACDC}
}

// ParseDiscipline maps a canonical name (Discipline.String) back to the
// discipline value.
func ParseDiscipline(name string) (Discipline, error) {
	for _, d := range Disciplines() {
		if d.String() == name {
			return d, nil
		}
	}
	names := make([]string, 0, len(Disciplines()))
	for _, d := range Disciplines() {
		names = append(names, d.String())
	}
	return 0, fmt.Errorf("core: unknown discipline %q (have %s)", name, strings.Join(names, ", "))
}

// System is one protocol operating point.
type System struct {
	// Tau is the slot time (end-to-end propagation delay); 0 means 1.
	Tau float64
	// M is the fixed message length in slots; required.
	M float64
	// RhoPrime is the normalized offered load λ′·M·τ; required.
	RhoPrime float64
	// K is the waiting-time constraint (absolute time); required.
	K float64
	// Discipline selects the policy (default Controlled).
	Discipline Discipline
	// Protocol selects a registered protocol plugin by name (see
	// internal/protocol) — the superset of the Discipline enum, open to
	// third-party registrations.  Empty means use Discipline; setting
	// both a Protocol and a non-default Discipline is an error.  Names
	// that correspond to a discipline are normalized onto it, so the
	// analytic models keep working.
	Protocol string
	// WindowG overrides the mean initial-window content (policy element
	// (2)); 0 selects the paper's heuristic optimum G*.
	WindowG float64
	// SplitFraction overrides where windows are cut (element (3)'s
	// companion knob, a §5 extension); 0 means the paper's ½.  Only the
	// controlled discipline supports it.
	SplitFraction float64
	// Seed drives simulation randomness (and the Random discipline's
	// common sequence).
	Seed uint64
	// TxLengths, when non-nil, draws each message's transmission time
	// from this law instead of the constant M·τ (Theorem 1 requires only
	// identically distributed lengths).  Its mean should equal M·τ so
	// RhoPrime keeps its meaning.  Supported by AnalyticLoss (controlled
	// discipline) and Simulate.
	TxLengths dist.Distribution
}

// withDefaults validates and fills defaults.
func (s System) withDefaults() (System, error) {
	if s.Tau == 0 {
		s.Tau = 1
	}
	if s.Tau < 0 || s.M <= 0 || s.RhoPrime <= 0 {
		return s, fmt.Errorf("core: need positive Tau, M, RhoPrime (got %v, %v, %v)", s.Tau, s.M, s.RhoPrime)
	}
	if s.K <= 0 || math.IsNaN(s.K) {
		return s, fmt.Errorf("core: need positive K (got %v)", s.K)
	}
	if s.WindowG == 0 {
		s.WindowG = queueing.OptimalWindowContent()
	}
	if s.WindowG < 0 {
		return s, fmt.Errorf("core: negative WindowG %v", s.WindowG)
	}
	if s.SplitFraction != 0 && (s.SplitFraction <= 0 || s.SplitFraction >= 1) {
		return s, fmt.Errorf("core: SplitFraction %v outside (0,1)", s.SplitFraction)
	}
	if s.Protocol != "" {
		if s.Discipline != Controlled {
			return s, fmt.Errorf("core: set Discipline or Protocol, not both (got %v and %q)", s.Discipline, s.Protocol)
		}
		// Normalize protocol names that ARE disciplines onto the enum, so
		// the analytic models and discipline-specific checks keep working.
		if d, err := ParseDiscipline(s.Protocol); err == nil {
			s.Discipline, s.Protocol = d, ""
		} else if _, ok := protocol.Get(s.Protocol); !ok {
			return s, fmt.Errorf("core: unknown protocol %q (registered: %s)", s.Protocol, strings.Join(protocol.Names(), ", "))
		}
	}
	if s.SplitFraction != 0 && (s.Discipline != Controlled || s.Protocol != "") {
		return s, fmt.Errorf("core: SplitFraction requires the controlled discipline")
	}
	return s, nil
}

// protocolName returns the registry selector for the system's policy.
func (s System) protocolName() string {
	if s.Protocol != "" {
		return s.Protocol
	}
	return s.Discipline.String()
}

// Lambda returns the total message arrival rate λ′ = ρ′/(M·τ).
func (s System) Lambda() float64 {
	tau := s.Tau
	if tau == 0 {
		tau = 1
	}
	return s.RhoPrime / (s.M * tau)
}

// Policy materializes the window control policy for this system via
// the protocol registry.  The builtin builders reproduce the exact
// construction this method used before the registry existed (pinned by
// the engine goldens), so existing seeds keep their bit-identical runs.
func (s System) Policy() (window.Policy, error) {
	s, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	return protocol.Build(s.protocolName(), protocol.Params{
		Tau: s.Tau, M: s.M, Lambda: s.Lambda(), K: s.K,
		G: s.WindowG, SplitFraction: s.SplitFraction, Seed: s.Seed,
	})
}

// AnalyticResult carries the model prediction for one operating point.
type AnalyticResult struct {
	// Loss is the predicted fraction of messages lost.
	Loss float64
	// Rho is the offered load λ′·E[service] including windowing overhead.
	Rho float64
	// ServerIdle is P(0) (controlled discipline only; NaN otherwise).
	ServerIdle float64
	// WindowContent is the mean window content G in effect.
	WindowContent float64
}

// AnalyticLoss evaluates the §4 queueing model for the system: eq. 4.7
// for the controlled discipline, the Beneš series for FCFS and the
// busy-period transform for LCFS.  The Random discipline has no analytic
// model and returns an error.
func (s System) AnalyticLoss() (AnalyticResult, error) {
	s, err := s.withDefaults()
	if err != nil {
		return AnalyticResult{}, err
	}
	if s.Protocol != "" {
		// A registered protocol outside the discipline enum: simulation
		// only, like the Random discipline.
		return AnalyticResult{}, fmt.Errorf("core: no analytic model for protocol %q", s.Protocol)
	}
	model := queueing.ProtocolModel{Tau: s.Tau, M: s.M, RhoPrime: s.RhoPrime, TxDist: s.TxLengths}
	switch s.Discipline {
	case Controlled:
		res, err := model.ControlledLoss(s.K)
		if err != nil {
			return AnalyticResult{}, err
		}
		return AnalyticResult{
			Loss: res.Loss, Rho: res.Rho, ServerIdle: res.ServerIdle,
			WindowContent: model.WindowContent(s.K),
		}, nil
	case FCFS, LCFS:
		// The uncontrolled baselines: a plain M/G/1 on the uncapped
		// window content G* (no element (4)).
		svc, err := model.Service(queueing.OptimalWindowContent())
		if err != nil {
			return AnalyticResult{}, err
		}
		q := queueing.MG1{Lambda: s.Lambda(), Service: svc}
		lossAt := q.LossFCFS
		if s.Discipline == LCFS {
			lossAt = q.LossLCFS
		}
		loss, err := lossAt(s.K)
		if err != nil {
			return AnalyticResult{}, err
		}
		return AnalyticResult{
			Loss: loss, Rho: q.Rho(), ServerIdle: math.NaN(),
			WindowContent: queueing.OptimalWindowContent(),
		}, nil
	default:
		return AnalyticResult{}, fmt.Errorf("core: no analytic model for the %v discipline", s.Discipline)
	}
}

// SimOptions tunes a simulation run.
type SimOptions struct {
	// EndTime is the simulated horizon; 0 chooses enough time for about
	// 1e5 offered messages.
	EndTime float64
	// Warmup excludes the initial transient; 0 means EndTime/20.
	Warmup float64
	// MaxBacklog aborts hopeless overloads; 0 means the sim default.
	MaxBacklog int
	// Collector, when non-nil, receives every slot-level protocol event
	// of the run (arrivals, slot outcomes, splits, discards,
	// transmissions).  When it can verify the conservation invariants —
	// as *metrics.SlotMetrics can — the run checks them and fails on
	// violation.  Not supported by SimulateReplicated (replications run
	// concurrently).
	Collector metrics.Collector
	// Faults injects imperfect channel feedback (erasures, false and
	// missed collisions) into the run; the zero value keeps feedback
	// perfect and the run bit-identical to a build without the fault
	// layer.  See fault.Config.
	Faults fault.Config
}

func (s System) simConfig(opt SimOptions) (sim.Config, error) {
	s, err := s.withDefaults()
	if err != nil {
		return sim.Config{}, err
	}
	pol, err := s.Policy()
	if err != nil {
		return sim.Config{}, err
	}
	end := opt.EndTime
	if end == 0 {
		end = 1e5 / s.Lambda()
	}
	warm := opt.Warmup
	if warm == 0 {
		warm = end / 20
	}
	return sim.Config{
		Policy: pol, Tau: s.Tau, M: s.M, Lambda: s.Lambda(), K: s.K,
		EndTime: end, Warmup: warm, Seed: s.Seed, MaxBacklog: opt.MaxBacklog,
		TxLengths: s.TxLengths, Collector: opt.Collector, Faults: opt.Faults,
	}, nil
}

// Simulate runs the fast global-view event simulation and returns the
// measured report.
func (s System) Simulate(opt SimOptions) (sim.Report, error) {
	cfg, err := s.simConfig(opt)
	if err != nil {
		return sim.Report{}, err
	}
	return sim.RunGlobal(cfg)
}

// SimulateDistributed runs the multi-station simulation with the given
// number of stations.  Their Poisson streams merge into one Poisson
// stream, so the run is the global engine's on the same configuration,
// which the per-station reference engine reproduces bit for bit (see
// sim.RunMultiStation).
func (s System) SimulateDistributed(stations int, opt SimOptions) (sim.Report, error) {
	cfg, err := s.simConfig(opt)
	if err != nil {
		return sim.Report{}, err
	}
	return sim.RunMultiStation(sim.MultiConfig{Config: cfg, Stations: stations})
}

// SimulateReplicated runs n independent replications of the global-view
// simulation and aggregates cross-replication confidence intervals.
func (s System) SimulateReplicated(n int, opt SimOptions) (sim.Replicated, error) {
	cfg, err := s.simConfig(opt)
	if err != nil {
		return sim.Replicated{}, err
	}
	return sim.RunReplicated(cfg, n)
}

// SimulateHeterogeneous runs the multi-station simulation with per-station
// membership transforms (the §5 extensions: priority via window sizes,
// clock skew); one station is created per transform, nil entries meaning a
// perfectly synchronized station.
func (s System) SimulateHeterogeneous(transforms []sim.Transform, opt SimOptions) (sim.HeterogeneousReport, error) {
	cfg, err := s.simConfig(opt)
	if err != nil {
		return sim.HeterogeneousReport{}, err
	}
	return sim.RunHeterogeneous(sim.HeterogeneousConfig{Config: cfg, Transforms: transforms})
}

// DecisionModel discretizes the system into the §3 semi-Markov decision
// model (Δ = τ), valid for the controlled discipline.
func (s System) DecisionModel() (*smdp.Model, error) {
	s, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	if s.Discipline != Controlled || s.Protocol != "" {
		return nil, fmt.Errorf("core: the decision model applies to the controlled discipline")
	}
	k := int(math.Round(s.K / s.Tau))
	if k < 1 {
		return nil, fmt.Errorf("core: K=%v shorter than one slot", s.K)
	}
	m := int(math.Round(s.M))
	p := -math.Expm1(-s.Lambda() * s.Tau) // 1 − e^(−λΔ)
	return smdp.NewModel(k, m, p)
}

// Trace runs the protocol over scripted arrival times and returns the
// recorded probe sequence (the figure-1/4 view).
func (s System) Trace(arrivals []float64) (*trace.Trace, error) {
	s, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	pol, err := s.Policy()
	if err != nil {
		return nil, err
	}
	return trace.Run(trace.Config{
		Policy: pol, Arrivals: arrivals, Tau: s.Tau, M: s.M, K: s.K,
	})
}
