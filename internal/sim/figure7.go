package sim

import (
	"fmt"
	"math"
	"strings"

	"windowctl/internal/metrics"
)

// PanelSpec identifies one panel of the paper's figure 7: a (ρ′, M) pair
// and a grid of time constraints.
type PanelSpec struct {
	// RhoPrime is the normalized offered load λ′·M·τ.
	RhoPrime float64
	// M is the message length in slots.
	M float64
	// Tau is the slot time; 0 means 1 (the natural unit).
	Tau float64
	// KOverM lists the constraints in units of the message time M·τ;
	// empty means the standard grid {0.5, 1, 1.5, 2, 3, 4, 6, 8}.
	KOverM []float64
}

// DefaultKOverM is the standard constraint grid of the harness.
var DefaultKOverM = []float64{0.5, 1, 1.5, 2, 3, 4, 6, 8}

// AllPanels returns the six panels of figure 7:
// ρ′ ∈ {.25, .50, .75} × M ∈ {25, 100}.
func AllPanels() []PanelSpec {
	var out []PanelSpec
	for _, rp := range []float64{0.25, 0.50, 0.75} {
		for _, m := range []float64{25, 100} {
			out = append(out, PanelSpec{RhoPrime: rp, M: m})
		}
	}
	return out
}

// WithDefaults returns the spec with Tau and KOverM defaulted.
func (p PanelSpec) WithDefaults() PanelSpec {
	if p.Tau == 0 {
		p.Tau = 1
	}
	if len(p.KOverM) == 0 {
		p.KOverM = append([]float64(nil), DefaultKOverM...)
	}
	return p
}

// Point is one constraint value of a panel with every curve evaluated.
type Point struct {
	// KOverM and K give the constraint in message times and absolute time.
	KOverM, K float64
	// Controlled is the analytic loss of the controlled protocol (eq 4.7).
	Controlled float64
	// FCFS and LCFS are the analytic baseline losses; NaN if the baseline
	// queue is unstable at this load.
	FCFS, LCFS float64
	// SimControlled is the simulated loss of the controlled protocol
	// (NaN when simulation was disabled).
	SimControlled float64
	// SimLo and SimHi bound SimControlled at 95% confidence.
	SimLo, SimHi float64
	// SimFCFS and SimLCFS are simulated baseline losses (NaN when
	// disabled or failed).
	SimFCFS, SimLCFS float64
	// SimFCFSErr and SimLCFSErr record why a requested baseline
	// simulation produced no value (nil when it succeeded or was not
	// requested).  The corresponding Sim* field is NaN on failure.
	SimFCFSErr, SimLCFSErr error
	// ControlledMetrics, FCFSMetrics and LCFSMetrics hold the slot-level
	// counters of each simulated run when SimOptions.Metrics is set (nil
	// otherwise, or when the run was skipped or failed).  Their
	// conservation invariants were verified by the run that filled them.
	ControlledMetrics, FCFSMetrics, LCFSMetrics *metrics.SlotMetrics
}

// Panel is a fully evaluated figure-7 panel.
type Panel struct {
	Spec   PanelSpec
	Points []Point
	// Protocol names the protocol the Sim* main curve ran
	// (SimOptions.Protocol; "controlled" when it was left empty).
	Protocol string
}

// SimOptions controls the simulation side of the harness.  The panels
// are evaluated by sweep.Figure7Panels, a view over the sweep grid
// engine: every option maps onto a sweep.Space or sweep.Options field.
type SimOptions struct {
	// Disable skips all simulation (analytic curves only).
	Disable bool
	// Baselines additionally simulates the FCFS and LCFS protocols.
	Baselines bool
	// Messages is the target number of offered messages per run, which
	// sets its horizon; 0 means 1e5.  Each run's warmup is a twentieth
	// of its horizon.
	Messages float64
	// Seed drives the runs; each run's stream derives from Seed and the
	// run's operating point (see sweep.Point), so it must be nonzero
	// whenever anything is simulated.
	Seed uint64
	// Metrics attaches a fresh metrics.SlotMetrics (without a wait
	// histogram) to every simulation run and surfaces it on the
	// resulting Point, so per-panel slot,
	// utilization and discard accounting (the §4.2 quantities) comes out
	// of the pipeline itself; every instrumented run's conservation
	// invariants are checked and a violation fails the evaluation.
	Metrics bool
	// Workers bounds the number of runs (one per constraint and
	// protocol, plus the panel's analytic solve) evaluated concurrently;
	// 0 means GOMAXPROCS, 1 means sequential.  The output is
	// bit-identical at every worker count: each run's random stream is
	// derived from its operating point, never from scheduling order.
	Workers int
	// Protocol names the discipline (core.Discipline.String: a builtin
	// or zoo protocol of internal/protocol) the main simulated curve
	// runs; empty means "controlled".  The analytic curves and the
	// FCFS/LCFS baselines are unaffected — they are the fixed comparison
	// yardstick.
	Protocol string
}

// Format renders the panel as an aligned text table, the library's
// counterpart of one figure-7 plot.  Baseline simulation failures are
// listed below the table.
func (p Panel) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 panel: rho'=%.2f  M=%g  (loss fraction vs. constraint K)%s\n",
		p.Spec.RhoPrime, p.Spec.M, p.protocolNote())
	fmt.Fprintf(&b, "%8s %10s %12s %12s %12s %14s %12s %12s\n",
		"K/M", "K", "controlled", "fcfs", "lcfs", p.simLabel(), "sim(fcfs)", "sim(lcfs)")
	for _, pt := range p.Points {
		fmt.Fprintf(&b, "%8.2f %10.1f %12.5f %12s %12s %14s %12s %12s\n",
			pt.KOverM, pt.K, pt.Controlled,
			fmtLoss(pt.FCFS), fmtLoss(pt.LCFS),
			fmtSim(pt.SimControlled, pt.SimLo, pt.SimHi),
			fmtLoss(pt.SimFCFS), fmtLoss(pt.SimLCFS))
	}
	for _, pt := range p.Points {
		if pt.SimFCFSErr != nil {
			fmt.Fprintf(&b, "note: sim(fcfs) failed at K/M=%.2f: %v\n", pt.KOverM, pt.SimFCFSErr)
		}
		if pt.SimLCFSErr != nil {
			fmt.Fprintf(&b, "note: sim(lcfs) failed at K/M=%.2f: %v\n", pt.KOverM, pt.SimLCFSErr)
		}
	}
	return b.String()
}

// MetricsTable renders the slot-level counters collected for the panel's
// simulation runs (SimOptions.Metrics) as an aligned text table: one row
// per (constraint, protocol) with slot counts, window splits, channel
// utilization and the sender-discard accounting behind the §4.2 ablation.
// Runs without metrics (disabled, skipped or failed) are omitted; the
// table says so when nothing was collected.
func (p Panel) MetricsTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Slot metrics: rho'=%.2f  M=%g  (per simulated run; invariants verified)%s\n",
		p.Spec.RhoPrime, p.Spec.M, p.protocolNote())
	mainLabel := p.Protocol
	if mainLabel == "" {
		mainLabel = "controlled"
	}
	fmt.Fprintf(&b, "%8s %-10s %10s %10s %10s %8s %8s %10s %10s %10s\n",
		"K/M", "protocol", "idle", "success", "collision", "splits", "util",
		"discards", "disc.frac", "loss")
	rows := 0
	for _, pt := range p.Points {
		for _, row := range []struct {
			name string
			sm   *metrics.SlotMetrics
		}{
			{mainLabel, pt.ControlledMetrics},
			{"fcfs", pt.FCFSMetrics},
			{"lcfs", pt.LCFSMetrics},
		} {
			if row.sm == nil {
				continue
			}
			rows++
			fmt.Fprintf(&b, "%8.2f %-10s %10d %10d %10d %8d %8.4f %10d %10.4f %10.4f\n",
				pt.KOverM, row.name,
				row.sm.IdleSlots, row.sm.SuccessSlots, row.sm.CollisionSlots,
				row.sm.Splits, row.sm.Utilization(),
				row.sm.Discards, row.sm.DiscardFraction(), row.sm.Loss())
		}
	}
	if rows == 0 {
		b.WriteString("(no metrics collected — run with SimOptions.Metrics / -metrics)\n")
	}
	return b.String()
}

// protocolNote annotates table titles when the simulated curve ran a
// zoo protocol instead of the paper's controlled protocol.
func (p Panel) protocolNote() string {
	if p.Protocol == "" || p.Protocol == "controlled" {
		return ""
	}
	return fmt.Sprintf("  [sim protocol: %s]", p.Protocol)
}

// simLabel is the column header of the main simulated curve.
func (p Panel) simLabel() string {
	if p.Protocol == "" || p.Protocol == "controlled" {
		return "sim(ctrl)"
	}
	return "sim(" + p.Protocol + ")"
}

func fmtLoss(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.5f", v)
}

func fmtSim(v, lo, hi float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.4f±%.4f", v, (hi-lo)/2)
}
