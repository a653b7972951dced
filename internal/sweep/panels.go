package sweep

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"windowctl/internal/core"
	"windowctl/internal/metrics"
	"windowctl/internal/sim"
)

// Figure7Panels evaluates figure-7 panels as views over Run.  Each panel
// is one Space over its ρ′, M, τ and K/M axis whose disciplines are the
// simulated curves (SimOptions.Protocol, plus FCFS and LCFS under
// Baselines), and an analytic-only Space (Messages 0) supplies whichever
// of the eq 4.7, FCFS and LCFS columns those disciplines do not cover.
// Every run derives its seed from its operating point, so the panels are
// bit-identical at any SimOptions.Workers.
//
// A failed controlled analytic solve or main-curve simulation fails the
// call; a failed baseline simulation lands in the Point's SimFCFSErr or
// SimLCFSErr.
func Figure7Panels(specs []sim.PanelSpec, opt sim.SimOptions) ([]sim.Panel, error) {
	main, err := panelProtocol(opt.Protocol)
	if err != nil {
		return nil, err
	}
	var simulated, analytic []core.Discipline
	if !opt.Disable {
		simulated = []core.Discipline{main}
		if opt.Baselines && main != core.FCFS {
			simulated = append(simulated, core.FCFS)
		}
		if opt.Baselines && main != core.LCFS {
			simulated = append(simulated, core.LCFS)
		}
	}
	for _, d := range DefaultDisciplines {
		if !slices.Contains(simulated, d) {
			analytic = append(analytic, d)
		}
	}

	panels := make([]sim.Panel, len(specs))
	for pi, spec := range specs {
		spec = spec.WithDefaults()
		byDisc := map[string][]Outcome{}
		s := panelSpace(spec, simulated, opt)
		if err := runView(s, opt, byDisc); err != nil {
			return nil, err
		}
		s.Disciplines, s.Messages, s.Seed = analytic, 0, analyticSeed
		if err := runView(s, opt, byDisc); err != nil {
			return nil, err
		}

		pts := make([]sim.Point, len(spec.KOverM))
		for i := range pts {
			ctrl := byDisc[core.Controlled.String()][i]
			if ctrl.Result.AnalyticErr != "" {
				return nil, fmt.Errorf("panel rho'=%v M=%v: controlled loss: %s",
					spec.RhoPrime, spec.M, ctrl.Result.AnalyticErr)
			}
			pt := sim.Point{
				KOverM: ctrl.Point.KOverM, K: ctrl.Point.K(),
				Controlled:    analyticLoss(ctrl),
				FCFS:          analyticLoss(byDisc[core.FCFS.String()][i]),
				LCFS:          analyticLoss(byDisc[core.LCFS.String()][i]),
				SimControlled: math.NaN(), SimLo: math.NaN(), SimHi: math.NaN(),
				SimFCFS: math.NaN(), SimLCFS: math.NaN(),
			}
			if !opt.Disable {
				o := byDisc[main.String()][i]
				if !o.Result.SimOK {
					return nil, fmt.Errorf("panel rho'=%v M=%v: %v simulation at K=%v: %s",
						spec.RhoPrime, spec.M, main, pt.K, o.Result.SimErr)
				}
				pt.SimControlled, pt.SimLo, pt.SimHi = o.Result.SimLoss, o.Result.SimLo, o.Result.SimHi
				pt.ControlledMetrics = o.Metrics
				if opt.Baselines {
					pt.SimFCFS, pt.FCFSMetrics, pt.SimFCFSErr = baselineSim(byDisc[core.FCFS.String()][i])
					pt.SimLCFS, pt.LCFSMetrics, pt.SimLCFSErr = baselineSim(byDisc[core.LCFS.String()][i])
				}
			}
			pts[i] = pt
		}
		panels[pi] = sim.Panel{Spec: spec, Points: pts, Protocol: main.String()}
	}
	return panels, nil
}

// Figure7Panel evaluates one panel; it is the single-spec case of
// Figure7Panels.
func Figure7Panel(spec sim.PanelSpec, opt sim.SimOptions) (sim.Panel, error) {
	panels, err := Figure7Panels([]sim.PanelSpec{spec}, opt)
	if err != nil {
		return sim.Panel{}, err
	}
	return panels[0], nil
}

// DegradationPanels evaluates loss-versus-feedback-error curves as views
// over Run: each panel is one Space over its ρ′, M, τ and K/M axis, the
// protocol (SimOptions.Protocol) alone on the discipline axis, and the
// options' ErrorRates and Mix on the ε axis.  Run's identity-derived
// seeds give three properties, all enforced by tests: results are
// bit-identical at any Workers count; the rate-0 column is bit-identical
// to the Figure7Panels simulation of the same seed (a point's seed
// ignores ε, and rate 0 disables the fault layer); and all rates of one
// constraint share one simulation seed (common random numbers), so a
// cell differs from its neighbour only through the injected faults.
func DegradationPanels(specs []sim.PanelSpec, opt sim.DegradationOptions) ([]sim.DegradationPanel, error) {
	main, err := panelProtocol(opt.Protocol)
	if err != nil {
		return nil, err
	}
	rates := opt.ErrorRates
	if len(rates) == 0 {
		rates = sim.DefaultErrorRates
	}
	// A Space only needs the scaled rates to be probabilities; the
	// degradation grid keeps ε and the mix weights probabilities too.
	for i, r := range rates {
		if !(r <= 1) {
			return nil, fmt.Errorf("sweep: error rate %v (position %d) outside [0, 1]", r, i)
		}
	}
	if err := opt.Mix.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: degradation mix: %w", err)
	}

	panels := make([]sim.DegradationPanel, len(specs))
	for pi, spec := range specs {
		spec = spec.WithDefaults()
		s := panelSpace(spec, []core.Discipline{main}, opt.SimOptions)
		s.ErrorRates, s.Mix = rates, opt.Mix
		outs, err := Run(s, Options{Workers: opt.Workers, Metrics: opt.Metrics})
		if err != nil {
			return nil, err
		}
		rows := make([]sim.DegradationRow, len(spec.KOverM))
		for i := range rows {
			cells := outs[i*len(rates) : (i+1)*len(rates)]
			rows[i] = sim.DegradationRow{
				KOverM: cells[0].Point.KOverM, K: cells[0].Point.K(),
				Points: make([]sim.DegradationPoint, len(cells)),
			}
			for j, o := range cells {
				if !o.Result.SimOK {
					return nil, fmt.Errorf("panel rho'=%v M=%v: degradation run at K=%v rate=%v: %s",
						spec.RhoPrime, spec.M, rows[i].K, o.Point.ErrorRate, o.Result.SimErr)
				}
				rows[i].Points[j] = sim.DegradationPoint{
					Rate: o.Point.ErrorRate, Rates: o.Point.Rates,
					Loss: o.Result.SimLoss, Lo: o.Result.SimLo, Hi: o.Result.SimHi,
					Metrics: o.Metrics,
				}
			}
		}
		panels[pi] = sim.DegradationPanel{
			Spec: spec, Rates: slices.Clone(rates), Rows: rows, Protocol: main.String(),
		}
	}
	return panels, nil
}

// analyticSeed fills the Seed of a panel's analytic-only Space, which
// Normalize requires nonzero although no analytic value depends on it.
const analyticSeed = 1

// panelProtocol maps SimOptions.Protocol onto the discipline axis.
func panelProtocol(name string) (core.Discipline, error) {
	if name == "" {
		return core.Controlled, nil
	}
	d, err := core.ParseDiscipline(name)
	if err != nil {
		return 0, fmt.Errorf("sweep: protocol: %w", err)
	}
	return d, nil
}

// panelSpace is the Space of one panel (already WithDefaults) over the
// given disciplines.
func panelSpace(spec sim.PanelSpec, discs []core.Discipline, opt sim.SimOptions) Space {
	messages := opt.Messages
	if messages == 0 {
		messages = 1e5
	}
	return Space{
		Tau: spec.Tau, Loads: []float64{spec.RhoPrime}, Ms: []float64{spec.M},
		KOverM: spec.KOverM, Disciplines: discs, Messages: messages, Seed: opt.Seed,
	}
}

// runView runs a one-panel Space without a cache and appends its
// outcomes to byDisc under their discipline, each list in K-axis order.
// A Space with no disciplines has nothing to run.
func runView(s Space, opt sim.SimOptions, byDisc map[string][]Outcome) error {
	if len(s.Disciplines) == 0 {
		return nil
	}
	outs, err := Run(s, Options{Workers: opt.Workers, Metrics: opt.Metrics})
	if err != nil {
		return err
	}
	for _, o := range outs {
		byDisc[o.Point.Discipline] = append(byDisc[o.Point.Discipline], o)
	}
	return nil
}

// analyticLoss is an outcome's analytic column, NaN when the model has
// no value there (an unstable baseline queue, a load far past
// saturation).
func analyticLoss(o Outcome) float64 {
	if !o.Result.AnalyticOK {
		return math.NaN()
	}
	return o.Result.AnalyticLoss
}

// baselineSim is a baseline outcome's simulated loss and collector, or
// NaN and the recorded failure.
func baselineSim(o Outcome) (float64, *metrics.SlotMetrics, error) {
	if !o.Result.SimOK {
		return math.NaN(), nil, errors.New(o.Result.SimErr)
	}
	return o.Result.SimLoss, o.Metrics, nil
}
