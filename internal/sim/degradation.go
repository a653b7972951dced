package sim

import (
	"fmt"
	"strings"

	"windowctl/internal/fault"
	"windowctl/internal/metrics"
)

// DefaultErrorRates is the standard feedback-error grid of the
// degradation mode.  It starts at exactly 0 so every curve anchors on the
// perfect-feedback baseline.
var DefaultErrorRates = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2}

// DegradationOptions parameterizes sweep.DegradationPanels.  The
// embedded SimOptions keep their meaning (horizon, seed, metrics,
// workers, protocol — Protocol swaps which protocol degrades); Disable
// and Baselines are ignored — the degradation mode simulates one
// protocol only.
type DegradationOptions struct {
	SimOptions
	// ErrorRates is the feedback-error grid ε; empty means
	// DefaultErrorRates.  Each entry must lie in [0, 1], without
	// duplicates.
	ErrorRates []float64
	// Mix sets the relative weight of the three fault kinds: at grid
	// value ε the injected rates are Mix.Scale(ε).  The zero value means
	// every kind at weight 1 (erasure = false collision = missed
	// collision = ε); weights must lie in [0, 1] so the scaled rates stay
	// probabilities.
	Mix fault.Rates
}

// DegradationPoint is one (constraint, error-rate) cell of a curve.
type DegradationPoint struct {
	// Rate is the grid value ε; Rates the effective per-kind
	// probabilities Mix.Scale(ε) injected at this point.
	Rate  float64
	Rates fault.Rates
	// Loss is the simulated loss of the controlled protocol, with
	// Lo and Hi its 95% within-run confidence bounds.
	Loss, Lo, Hi float64
	// Metrics holds the run's slot- and fault-level counters when
	// SimOptions.Metrics is set (nil otherwise).  Its conservation
	// invariants were verified by the run that filled it.
	Metrics *metrics.SlotMetrics
}

// DegradationRow is one constraint's loss curve across the error grid.
type DegradationRow struct {
	// KOverM and K give the constraint in message times and absolute time.
	KOverM, K float64
	// Points holds one entry per error rate, in grid order.
	Points []DegradationPoint
}

// DegradationPanel is a fully evaluated degradation curve: loss versus
// feedback-error rate for every constraint of one (ρ′, M) panel.
type DegradationPanel struct {
	Spec  PanelSpec
	Rates []float64
	Rows  []DegradationRow
	// Protocol names the protocol that degraded (SimOptions.Protocol;
	// "controlled" when it was left empty).
	Protocol string
}

// Format renders the panel as an aligned text table: one row per
// constraint, one loss column per feedback-error rate.
func (p DegradationPanel) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Degradation curve: rho'=%.2f  M=%g  (loss fraction vs. feedback-error rate)%s\n",
		p.Spec.RhoPrime, p.Spec.M, degradationNote(p.Protocol))
	fmt.Fprintf(&b, "%8s", "K/M")
	for _, r := range p.Rates {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("eps=%g", r))
	}
	b.WriteByte('\n')
	for _, row := range p.Rows {
		fmt.Fprintf(&b, "%8.2f", row.KOverM)
		for _, pt := range row.Points {
			fmt.Fprintf(&b, " %12.5f", pt.Loss)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// degradationNote annotates table titles when a zoo protocol degraded
// instead of the paper's controlled protocol.
func degradationNote(name string) string {
	if name == "" || name == "controlled" {
		return ""
	}
	return fmt.Sprintf("  [protocol: %s]", name)
}

// FaultTable renders the fault and recovery counters of the panel's
// instrumented runs (DegradationOptions.Metrics), one row per
// (constraint, rate) cell with nonzero injected rates.
func (p DegradationPanel) FaultTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault metrics: rho'=%.2f  M=%g  (per run; invariants verified)\n",
		p.Spec.RhoPrime, p.Spec.M)
	fmt.Fprintf(&b, "%8s %8s %10s %12s %12s %11s %10s %10s\n",
		"K/M", "eps", "erasures", "false-coll", "missed-coll", "recoveries", "discards", "loss")
	rows := 0
	for _, row := range p.Rows {
		for _, pt := range row.Points {
			if pt.Metrics == nil || pt.Rate == 0 {
				continue
			}
			rows++
			fmt.Fprintf(&b, "%8.2f %8g %10d %12d %12d %11d %10d %10.4f\n",
				row.KOverM, pt.Rate,
				pt.Metrics.Erasures, pt.Metrics.FalseCollisions, pt.Metrics.MissedCollisions,
				pt.Metrics.Recoveries, pt.Metrics.Discards, pt.Metrics.Loss())
		}
	}
	if rows == 0 {
		b.WriteString("(no metrics collected — run with Metrics / -metrics and a nonzero rate)\n")
	}
	return b.String()
}
