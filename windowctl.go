// Package windowctl is a Go reproduction of
//
//	J. F. Kurose, M. Schwartz, Y. Yemini,
//	"Controlling Window Protocols for Time-Constrained Communication in a
//	Multiple Access Environment", Proc. 5th Data Communications Symposium
//	(SIGCOMM), 1983.
//
// The library implements the time-window group random-access protocol,
// the paper's four-element control policy with its Theorem-1 optimal
// settings, the M/G/1-with-impatient-customers loss analysis of §4
// (equation 4.7), the uncontrolled FCFS/LCFS/RANDOM baselines of
// [Kurose 83], the §3 semi-Markov decision model with Howard policy
// iteration, and two event simulators (a fast global view and a full
// multi-station run over a broadcast-channel model).
//
// Quick start:
//
//	sys := windowctl.System{M: 25, RhoPrime: 0.5, K: 50}
//	analytic, _ := sys.AnalyticLoss()      // eq. 4.7
//	report, _ := sys.Simulate(windowctl.SimOptions{})
//	fmt.Println(analytic.Loss, report.Loss())
//
// The experiment harness regenerates every panel of the paper's figure 7:
//
//	panel, _ := windowctl.Figure7Panel(
//	    windowctl.PanelSpec{RhoPrime: 0.75, M: 25}, windowctl.Figure7Options{})
//	fmt.Println(panel.Format())
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package windowctl

import (
	"windowctl/internal/core"
	"windowctl/internal/dist"
	"windowctl/internal/fault"
	"windowctl/internal/metrics"
	"windowctl/internal/protocol"
	"windowctl/internal/queueing"
	"windowctl/internal/sim"
	"windowctl/internal/sweep"
)

// System describes one protocol operating point in the paper's
// parameterization; see core.System.
type System = core.System

// Discipline selects the scheduling discipline.
type Discipline = core.Discipline

// Disciplines.
const (
	// Controlled is the paper's optimal policy (Theorem 1 + element (4)).
	Controlled = core.Controlled
	// FCFS is the uncontrolled global-FCFS baseline of [Kurose 83].
	FCFS = core.FCFS
	// LCFS is the uncontrolled global-LCFS baseline of [Kurose 83].
	LCFS = core.LCFS
	// Random is the uncontrolled random-order baseline of [Kurose 83].
	Random = core.Random
	// Tournament is Galtier's constant-window tournament MAC (protocol
	// zoo; simulation only).
	Tournament = core.Tournament
	// ACDC is admission-control delay-constrained random access
	// (protocol zoo; simulation only).
	ACDC = core.ACDC
)

// Disciplines returns every named discipline, in enum order.
func Disciplines() []Discipline { return core.Disciplines() }

// ParseDiscipline maps a canonical name (Discipline.String) back to the
// discipline value.
func ParseDiscipline(name string) (Discipline, error) { return core.ParseDiscipline(name) }

// ProtocolNames returns the names of every registered protocol in the
// MAC zoo (see internal/protocol), sorted.  Any of them can be set as
// System.Protocol or passed to the CLIs' -protocol flag; the discipline
// names are a subset.
func ProtocolNames() []string { return protocol.Names() }

// ProtocolInfo describes one registered protocol: its canonical name,
// one-line behavior summary and literature citation.
type ProtocolInfo = protocol.Info

// Protocols returns the registered protocols sorted by name, for zoo
// tables and -h listings.
func Protocols() []ProtocolInfo { return protocol.Infos() }

// AnalyticResult is a queueing-model prediction.
type AnalyticResult = core.AnalyticResult

// SimOptions tunes a simulation run.
type SimOptions = core.SimOptions

// Report is a simulation outcome.
type Report = sim.Report

// Replicated aggregates independent simulation replications with
// cross-replication confidence intervals.
type Replicated = sim.Replicated

// Collector receives slot-level protocol events from a simulation run;
// attach one via SimOptions.Collector or Figure7Options.Metrics.
type Collector = metrics.Collector

// SlotMetrics is the concrete Collector counting idle/success/collision
// slots, window splits, element-(4) discards, transmitted and lost
// messages plus a waiting-time histogram of accepted messages.  Runs
// instrumented with it verify the conservation invariants (see
// docs/OBSERVABILITY.md) and fail on violation.
type SlotMetrics = metrics.SlotMetrics

// NewSlotMetrics returns a SlotMetrics whose accepted-wait histogram has
// the given bin width and bin count; use binWidth = τ and enough bins to
// cover K.  The zero-value SlotMetrics is also usable (no histogram).
func NewSlotMetrics(binWidth float64, bins int) *SlotMetrics {
	return metrics.NewSlotMetrics(binWidth, bins)
}

// Distribution is a non-negative probability law, usable as a message-
// length model via System.TxLengths.
type Distribution = dist.Distribution

// FixedLength returns the constant message-length law (the paper's
// evaluated case).
func FixedLength(v float64) Distribution { return dist.NewDeterministic(v) }

// ExponentialLength returns an exponential message-length law with the
// given mean.
func ExponentialLength(mean float64) Distribution { return dist.NewExponential(1 / mean) }

// ErlangLength returns an Erlang-k message-length law with the given
// mean, interpolating variability between exponential (k = 1) and fixed
// (k → ∞).
func ErlangLength(k int, mean float64) Distribution {
	return dist.NewErlang(k, float64(k)/mean)
}

// PanelSpec identifies a figure-7 panel.
type PanelSpec = sim.PanelSpec

// Panel is an evaluated figure-7 panel.
type Panel = sim.Panel

// Point is one constraint value of a panel.
type Point = sim.Point

// Figure7Options controls the harness' simulation side; callers size
// each run with Messages.
type Figure7Options = sim.SimOptions

// Figure7Panel evaluates one figure-7 panel (analytic curves plus
// simulation points).
func Figure7Panel(spec PanelSpec, opt Figure7Options) (Panel, error) {
	return sweep.Figure7Panel(spec, opt)
}

// Figure7Panels evaluates a set of figure-7 panels as views over the
// sweep grid engine, its analytic solves and per-(constraint, protocol)
// simulation runs spread over Figure7Options.Workers concurrent workers;
// results are bit-identical at every worker count.
func Figure7Panels(specs []PanelSpec, opt Figure7Options) ([]Panel, error) {
	return sweep.Figure7Panels(specs, opt)
}

// AllFigure7Panels returns the paper's six panel specifications
// (ρ′ ∈ {.25, .50, .75} × M ∈ {25, 100}).
func AllFigure7Panels() []PanelSpec { return sim.AllPanels() }

// FaultConfig configures imperfect-feedback injection for a run (attach
// via SimOptions.Faults).  The zero value keeps feedback perfect and the
// run bit-identical to a fault-free build.
type FaultConfig = fault.Config

// FaultRates holds the independent per-slot probabilities of the three
// feedback-fault kinds: erasures, false collisions, missed collisions.
type FaultRates = fault.Rates

// DegradationOptions controls a loss-versus-feedback-error evaluation.
type DegradationOptions = sim.DegradationOptions

// DegradationPanel is an evaluated degradation curve (loss vs. feedback-
// error rate for every constraint of one (ρ′, M) panel).
type DegradationPanel = sim.DegradationPanel

// DegradationRow is one constraint's loss curve across the error grid.
type DegradationRow = sim.DegradationRow

// DegradationPoint is one (constraint, error-rate) cell of a curve.
type DegradationPoint = sim.DegradationPoint

// DegradationPanels evaluates loss-versus-feedback-error curves for the
// given panels over DegradationOptions.Workers concurrent workers.  The
// rate-0 column is bit-identical to the perfect-feedback Figure7Panels
// simulation with the same seed.
func DegradationPanels(specs []PanelSpec, opt DegradationOptions) ([]DegradationPanel, error) {
	return sweep.DegradationPanels(specs, opt)
}

// Transform perturbs one station's membership test (see the §5
// extensions: priority via window sizes, asynchronous clocks).
type Transform = sim.Transform

// HeterogeneousReport extends Report with per-station breakdowns.
type HeterogeneousReport = sim.HeterogeneousReport

// StationReport carries one station's outcome counts.
type StationReport = sim.StationReport

// PriorityStretch scales a station's membership window by factor (> 1
// raises priority) down to the given window-length floor.
func PriorityStretch(factor, floor float64) Transform {
	return sim.PriorityStretch(factor, floor)
}

// ClockSkew shifts a station's view of every window by skew and shrinks
// it by a symmetric guard band (Molle-style asynchronous operation).
func ClockSkew(skew, guard float64) Transform { return sim.ClockSkew(skew, guard) }

// OptimalWindowContent returns G*, the mean initial-window content that
// minimizes mean windowing time per scheduled message — the paper's
// element-(2) heuristic, a pure number (≈ 1.09).
func OptimalWindowContent() float64 { return queueing.OptimalWindowContent() }
