package sweep

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"windowctl/internal/core"
	"windowctl/internal/metrics"
	"windowctl/internal/sim"
)

// TestPanelsAreSweepViews pins the panels to the grid engine: every
// value of a figure-7 panel with baselines and metrics is the Outcome of
// the same operating point in a plain Run of the panel's grid, bit for
// bit, and the rate-0 column of a degradation curve is that panel's
// controlled column.  A panel that kept a seed rule of its own (the
// retired driver hashed the K index) would differ in every sim value.
func TestPanelsAreSweepViews(t *testing.T) {
	spec := sim.PanelSpec{RhoPrime: 0.5, M: 25, KOverM: []float64{1, 2, 4}}
	opt := sim.SimOptions{Baselines: true, Metrics: true, Messages: 3000, Seed: 1983, Workers: 2}
	panel, err := Figure7Panel(spec, opt)
	if err != nil {
		t.Fatalf("Figure7Panel: %v", err)
	}
	outs, err := Run(Space{
		Loads: []float64{spec.RhoPrime}, Ms: []float64{spec.M}, KOverM: spec.KOverM,
		Messages: opt.Messages, Seed: opt.Seed,
	}, Options{Workers: 1, Metrics: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	for i, pt := range panel.Points {
		for j, c := range []struct {
			disc              string
			analytic, simLoss float64
			sm                *metrics.SlotMetrics
		}{
			{"controlled", pt.Controlled, pt.SimControlled, pt.ControlledMetrics},
			{"fcfs", pt.FCFS, pt.SimFCFS, pt.FCFSMetrics},
			{"lcfs", pt.LCFS, pt.SimLCFS, pt.LCFSMetrics},
		} {
			o := outs[i*len(DefaultDisciplines)+j]
			if o.Point.Discipline != c.disc || o.Point.KOverM != pt.KOverM {
				t.Fatalf("outcome %d is %s at K/M=%v, want %s at K/M=%v",
					i*len(DefaultDisciplines)+j, o.Point.Discipline, o.Point.KOverM, c.disc, pt.KOverM)
			}
			if !same(c.analytic, o.Result.AnalyticLoss) {
				t.Errorf("K/M=%v %s: panel analytic loss %.17g, sweep outcome %.17g",
					pt.KOverM, c.disc, c.analytic, o.Result.AnalyticLoss)
			}
			if !same(c.simLoss, o.Result.SimLoss) {
				t.Errorf("K/M=%v %s: panel sim loss %.17g, sweep outcome %.17g",
					pt.KOverM, c.disc, c.simLoss, o.Result.SimLoss)
			}
			if c.sm == nil || !reflect.DeepEqual(c.sm, o.Metrics) {
				t.Errorf("K/M=%v %s: panel collector %+v, sweep outcome %+v",
					pt.KOverM, c.disc, c.sm, o.Metrics)
			}
		}
		ctrl := outs[i*len(DefaultDisciplines)].Result
		if !same(pt.SimLo, ctrl.SimLo) || !same(pt.SimHi, ctrl.SimHi) {
			t.Errorf("K/M=%v controlled: panel CI [%.17g, %.17g], sweep outcome [%.17g, %.17g]",
				pt.KOverM, pt.SimLo, pt.SimHi, ctrl.SimLo, ctrl.SimHi)
		}
	}

	curves, err := DegradationPanels([]sim.PanelSpec{spec}, sim.DegradationOptions{
		SimOptions: opt, ErrorRates: []float64{0, 0.05},
	})
	if err != nil {
		t.Fatalf("DegradationPanels: %v", err)
	}
	for i, row := range curves[0].Rows {
		got, want := row.Points[0], panel.Points[i]
		if !same(got.Loss, want.SimControlled) || !same(got.Lo, want.SimLo) || !same(got.Hi, want.SimHi) {
			t.Errorf("K/M=%v: rate-0 loss %.17g [%.17g, %.17g], figure-7 controlled %.17g [%.17g, %.17g]",
				row.KOverM, got.Loss, got.Lo, got.Hi, want.SimControlled, want.SimLo, want.SimHi)
		}
		if !reflect.DeepEqual(got.Metrics, want.ControlledMetrics) {
			t.Errorf("K/M=%v: rate-0 collector %+v, figure-7 controlled %+v",
				row.KOverM, got.Metrics, want.ControlledMetrics)
		}
	}
}

// TestPanelErrors pins what a panel returns as an error rather than
// records: an unknown protocol, a controlled analytic solve that does
// not converge and a main-curve simulation that outgrows the engine's
// backlog limit.  A failed baseline simulation is recorded on its Point
// instead, and the panel still renders.
func TestPanelErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		spec sim.PanelSpec
		opt  sim.SimOptions
		want string
	}{
		{"unknown protocol", sim.PanelSpec{RhoPrime: 0.5, M: 25, KOverM: []float64{1}},
			sim.SimOptions{Protocol: "bogus", Messages: 100, Seed: 1}, `unknown discipline "bogus"`},
		{"controlled solve", sim.PanelSpec{RhoPrime: 50, M: 25, KOverM: []float64{3}},
			sim.SimOptions{Disable: true}, "controlled loss: queueing: convolution series did not converge"},
		// Eight times channel capacity: FCFS sends every message, so its
		// backlog passes the engine's 1<<20 limit within ~1.2e6 arrivals.
		{"main-curve simulation", sim.PanelSpec{RhoPrime: 8, M: 25, KOverM: []float64{1}},
			sim.SimOptions{Protocol: "fcfs", Messages: 2e6, Seed: 7}, "fcfs simulation at K=25: sim: backlog exceeded"},
	} {
		_, err := Figure7Panel(c.spec, c.opt)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}

	// The controlled protocol discards what it cannot deliver by K, so
	// its backlog stays bounded while both baselines overflow.
	panel, err := Figure7Panel(sim.PanelSpec{RhoPrime: 8, M: 25, KOverM: []float64{1}},
		sim.SimOptions{Baselines: true, Messages: 2e6, Seed: 7})
	if err != nil {
		t.Fatalf("baseline failures failed the panel: %v", err)
	}
	pt := panel.Points[0]
	for _, b := range []struct {
		disc string
		loss float64
		err  error
	}{{"fcfs", pt.SimFCFS, pt.SimFCFSErr}, {"lcfs", pt.SimLCFS, pt.SimLCFSErr}} {
		if b.err == nil || !math.IsNaN(b.loss) || !strings.Contains(b.err.Error(), "backlog exceeded") {
			t.Errorf("%s: sim loss %v, error %v; want NaN and a backlog error", b.disc, b.loss, b.err)
		}
	}
}

// TestNaNAnalyticHasNoValue pins the analytic column far past
// saturation, where eq 4.7's solve returns NaN without an error: the
// outcome must carry no value (not a sanitized 0 marked valid), and the
// panel must show NaN, as the analytic curve did before the panels
// became views.
func TestNaNAnalyticHasNoValue(t *testing.T) {
	spec := sim.PanelSpec{RhoPrime: 1e9, M: 25, KOverM: []float64{1}}
	outs, err := Run(Space{
		Loads: []float64{spec.RhoPrime}, Ms: []float64{spec.M}, KOverM: spec.KOverM,
		Disciplines: []core.Discipline{core.Controlled}, Seed: 1,
	}, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r := outs[0].Result; r.AnalyticOK || r.AnalyticErr != "" {
		t.Errorf("controlled at rho'=1e9 K/M=1: analytic ok=%v loss=%v err=%q, want no value and no error",
			r.AnalyticOK, r.AnalyticLoss, r.AnalyticErr)
	}
	panel, err := Figure7Panel(spec, sim.SimOptions{Disable: true})
	if err != nil {
		t.Fatalf("Figure7Panel: %v", err)
	}
	if got := panel.Points[0].Controlled; !math.IsNaN(got) {
		t.Errorf("rho'=1e9 K/M=1: panel controlled loss %v, want NaN", got)
	}
}
