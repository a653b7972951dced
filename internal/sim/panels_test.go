// The figure-7 and degradation panel tests sit in the external test
// package: the panels are views over sweep.Run (sweep.Figure7Panels,
// sweep.DegradationPanels), and sweep imports sim.
package sim_test

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"windowctl/internal/fault"
	"windowctl/internal/sim"
	"windowctl/internal/sweep"
)

// panelsBitIdentical compares evaluated panels field by field, treating
// floats by their bit pattern so that NaN placeholders (disabled or failed
// curves) compare equal — reflect.DeepEqual would report NaN != NaN.
func panelsBitIdentical(a, b []sim.Panel) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if !reflect.DeepEqual(a[i].Spec, b[i].Spec) || len(a[i].Points) != len(b[i].Points) {
			return false
		}
		for j := range a[i].Points {
			p, q := a[i].Points[j], b[i].Points[j]
			if !same(p.KOverM, q.KOverM) || !same(p.K, q.K) ||
				!same(p.Controlled, q.Controlled) || !same(p.FCFS, q.FCFS) || !same(p.LCFS, q.LCFS) ||
				!same(p.SimControlled, q.SimControlled) || !same(p.SimLo, q.SimLo) || !same(p.SimHi, q.SimHi) ||
				!same(p.SimFCFS, q.SimFCFS) || !same(p.SimLCFS, q.SimLCFS) {
				return false
			}
			if (p.SimFCFSErr == nil) != (q.SimFCFSErr == nil) ||
				(p.SimLCFSErr == nil) != (q.SimLCFSErr == nil) {
				return false
			}
		}
	}
	return true
}

// The reproducibility contract of the parallel pipeline: the fully
// evaluated panels — analytic curves, simulated losses and confidence
// intervals — must be bit-identical at every worker count, because each
// work item's seed is derived from the item's identity rather than from
// scheduling order.
func TestFigure7PanelsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation panel in -short mode")
	}
	specs := []sim.PanelSpec{
		{RhoPrime: 0.25, M: 25, KOverM: []float64{0.5, 1, 2}},
		{RhoPrime: 0.75, M: 25, KOverM: []float64{1, 4}},
	}
	opt := sim.SimOptions{Baselines: true, Messages: 5000, Seed: 99}

	optSeq := opt
	optSeq.Workers = 1
	seq, err := sweep.Figure7Panels(specs, optSeq)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{0, 2, runtime.GOMAXPROCS(0) + 3} {
		optPar := opt
		optPar.Workers = workers
		par, err := sweep.Figure7Panels(specs, optPar)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !panelsBitIdentical(seq, par) {
			t.Errorf("workers=%d: parallel result differs from sequential\nseq: %+v\npar: %+v",
				workers, seq, par)
		}
	}
}

// Figure7Panel must be exactly the single-spec case of Figure7Panels.
func TestFigure7PanelMatchesPanels(t *testing.T) {
	spec := sim.PanelSpec{RhoPrime: 0.5, M: 25, KOverM: []float64{1, 2}}
	opt := sim.SimOptions{Disable: true}
	one, err := sweep.Figure7Panel(spec, opt)
	if err != nil {
		t.Fatalf("Figure7Panel: %v", err)
	}
	many, err := sweep.Figure7Panels([]sim.PanelSpec{spec}, opt)
	if err != nil {
		t.Fatalf("Figure7Panels: %v", err)
	}
	if !panelsBitIdentical([]sim.Panel{one}, many) {
		t.Errorf("Figure7Panel differs from Figure7Panels[0]")
	}
}

func TestFigure7PanelAnalyticOnly(t *testing.T) {
	panel, err := sweep.Figure7Panel(sim.PanelSpec{RhoPrime: 0.5, M: 25}, sim.SimOptions{Disable: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(panel.Points) != len(sim.DefaultKOverM) {
		t.Fatalf("points = %d", len(panel.Points))
	}
	prev := 1.1
	for _, pt := range panel.Points {
		// Controlled loss decreases in K and dominates the baselines.
		if pt.Controlled > prev+1e-9 {
			t.Fatalf("controlled loss not monotone at K/M=%v", pt.KOverM)
		}
		prev = pt.Controlled
		if !math.IsNaN(pt.FCFS) && pt.Controlled > pt.FCFS+5e-4 {
			t.Fatalf("controlled %v worse than FCFS %v at K/M=%v", pt.Controlled, pt.FCFS, pt.KOverM)
		}
		if !math.IsNaN(pt.SimControlled) {
			t.Fatal("simulation ran although disabled")
		}
	}
	if panel.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestFigure7PanelWithSimulation(t *testing.T) {
	spec := sim.PanelSpec{RhoPrime: 0.75, M: 25, KOverM: []float64{1, 2}}
	panel, err := sweep.Figure7Panel(spec, sim.SimOptions{Seed: 5, Messages: 12000})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range panel.Points {
		if math.IsNaN(pt.SimControlled) {
			t.Fatal("missing simulation point")
		}
		// Simulation within 50% relative + 0.02 of the analytic curve.
		if math.Abs(pt.SimControlled-pt.Controlled) > 0.5*pt.Controlled+0.02 {
			t.Fatalf("K/M=%v: sim %v far from analytic %v", pt.KOverM, pt.SimControlled, pt.Controlled)
		}
		if pt.SimLo > pt.SimControlled || pt.SimHi < pt.SimControlled {
			t.Fatal("CI does not bracket the estimate")
		}
	}
}

func TestPanelChart(t *testing.T) {
	panel, err := sweep.Figure7Panel(sim.PanelSpec{RhoPrime: 0.75, M: 25}, sim.SimOptions{Disable: true})
	if err != nil {
		t.Fatal(err)
	}
	chart := panel.Chart(64, 18)
	for _, marker := range []string{"C", "F", "L"} {
		if !strings.Contains(chart, marker) {
			t.Fatalf("chart missing %q series:\n%s", marker, chart)
		}
	}
	if !strings.Contains(chart, "rho'=0.75") {
		t.Fatal("chart header missing")
	}
	// The top row (largest loss) must hold the FCFS curve, the paper's
	// worst performer at this load.
	lines := strings.Split(chart, "\n")
	if !strings.Contains(lines[1], "F") {
		t.Fatalf("top row is not FCFS:\n%s", chart)
	}
	// Degenerate sizes are clamped, empty panels render empty.
	if (sim.Panel{}).Chart(5, 2) != "" {
		t.Fatal("empty panel should render empty")
	}
}

// TestFigure7Metrics exercises sim.SimOptions.Metrics end to end: every
// simulated point must surface verified collectors, and the panel table
// must render them.
func TestFigure7Metrics(t *testing.T) {
	spec := sim.PanelSpec{RhoPrime: 0.5, M: 25, KOverM: []float64{1, 2}}
	panel, err := sweep.Figure7Panel(spec, sim.SimOptions{
		Baselines: true, Metrics: true, Messages: 3000, Seed: 11,
	})
	if err != nil {
		t.Fatalf("Figure7Panel: %v", err)
	}
	for i, pt := range panel.Points {
		if pt.ControlledMetrics == nil {
			t.Fatalf("point %d: no controlled metrics", i)
		}
		if pt.ControlledMetrics.Transmissions == 0 {
			t.Errorf("point %d: empty controlled metrics", i)
		}
		if pt.SimFCFSErr == nil && pt.FCFSMetrics == nil {
			t.Errorf("point %d: FCFS succeeded but surfaced no metrics", i)
		}
		if pt.SimLCFSErr == nil && pt.LCFSMetrics == nil {
			t.Errorf("point %d: LCFS succeeded but surfaced no metrics", i)
		}
	}
	table := panel.MetricsTable()
	for _, want := range []string{"controlled", "util", "discards", "splits"} {
		if !strings.Contains(table, want) {
			t.Errorf("MetricsTable missing %q:\n%s", want, table)
		}
	}

	// Without the option no collectors are attached and the table says so.
	plain, err := sweep.Figure7Panel(spec, sim.SimOptions{Messages: 1500, Seed: 11})
	if err != nil {
		t.Fatalf("Figure7Panel (plain): %v", err)
	}
	if plain.Points[0].ControlledMetrics != nil {
		t.Error("metrics surfaced without sim.SimOptions.Metrics")
	}
	if !strings.Contains(plain.MetricsTable(), "no metrics collected") {
		t.Errorf("empty MetricsTable should say so:\n%s", plain.MetricsTable())
	}
}

// degradationSpec is the small panel the degradation tests evaluate.
var degradationSpec = sim.PanelSpec{RhoPrime: 0.5, M: 25, KOverM: []float64{2, 4}}

// TestDegradationRateZeroMatchesFigure7 pins the anchoring contract: the
// ε = 0 column of a degradation curve is the perfect-feedback simulation
// of the same seed, bit for bit.
func TestDegradationRateZeroMatchesFigure7(t *testing.T) {
	opt := sim.SimOptions{Messages: 4000, Seed: 1983}
	baseline, err := sweep.Figure7Panels([]sim.PanelSpec{degradationSpec}, opt)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := sweep.DegradationPanels([]sim.PanelSpec{degradationSpec}, sim.DegradationOptions{
		SimOptions: opt, ErrorRates: []float64{0, 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range curves[0].Rows {
		want := baseline[0].Points[i].SimControlled
		if got := row.Points[0].Loss; got != want {
			t.Errorf("K/M=%v: rate-0 loss %v != figure-7 simulation %v", row.KOverM, got, want)
		}
		if lo, hi := row.Points[0].Lo, row.Points[0].Hi; lo != baseline[0].Points[i].SimLo || hi != baseline[0].Points[i].SimHi {
			t.Errorf("K/M=%v: rate-0 CI differs from figure-7 simulation", row.KOverM)
		}
	}
}

// TestDegradationDeterministicAcrossWorkers runs the same degradation
// evaluation sequentially and with a worker pool: the fault schedules are
// counter-based and item seeds identity-derived, so the results must be
// bit-identical at any worker count.
func TestDegradationDeterministicAcrossWorkers(t *testing.T) {
	opt := sim.DegradationOptions{
		SimOptions: sim.SimOptions{Messages: 3000, Seed: 7},
		ErrorRates: []float64{0, 0.05, 0.1},
	}
	seq := opt
	seq.Workers = 1
	par := opt
	par.Workers = 4
	a, err := sweep.DegradationPanels([]sim.PanelSpec{degradationSpec}, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep.DegradationPanels([]sim.PanelSpec{degradationSpec}, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed the degradation curve:\n%v\n%v", a, b)
	}
}

// TestDegradationMonotone checks the headline property of the curve: at a
// fixed constraint, loss does not decrease as the feedback-error rate
// grows.  The grid shares one simulation seed per constraint and one
// fault-word stream across rates (nested fault schedules — common random
// numbers), so the comparison is far less noisy than independent runs; a
// small slack still absorbs the residual divergence.
func TestDegradationMonotone(t *testing.T) {
	curves, err := sweep.DegradationPanels([]sim.PanelSpec{degradationSpec}, sim.DegradationOptions{
		SimOptions: sim.SimOptions{Messages: 6000, Seed: 1983},
		ErrorRates: []float64{0, 0.05, 0.15},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range curves[0].Rows {
		for j := 1; j < len(row.Points); j++ {
			prev, cur := row.Points[j-1], row.Points[j]
			if cur.Loss < prev.Loss-0.005 {
				t.Errorf("K/M=%v: loss fell from %.5f (eps=%v) to %.5f (eps=%v)",
					row.KOverM, prev.Loss, prev.Rate, cur.Loss, cur.Rate)
			}
		}
		if last := row.Points[len(row.Points)-1]; last.Loss <= row.Points[0].Loss {
			t.Errorf("K/M=%v: heavy faults did not raise loss (%.5f -> %.5f)",
				row.KOverM, row.Points[0].Loss, last.Loss)
		}
	}
}

// TestDegradationValidation rejects out-of-range and duplicate grids and
// out-of-range mixes.  The seed is valid, so each rejection must come
// from the bad value itself, and the message must name it: a bare
// "Seed must be nonzero" or an unrelated axis would mean the check under
// test never ran.
func TestDegradationValidation(t *testing.T) {
	for _, c := range []struct {
		name  string
		rates []float64
		mix   fault.Rates
		want  string
	}{
		{"negative rate", []float64{-0.1}, fault.Rates{}, "-0.1"},
		{"rate above one", []float64{0, 1.5}, fault.Rates{}, "1.5"},
		{"duplicate rate", []float64{0, 0.05, 0.05}, fault.Rates{}, "duplicate error-rates value 0.05"},
		{"mix weight above one", nil, fault.Rates{Erasure: 2}, "erasure rate 2"},
	} {
		_, err := sweep.DegradationPanels([]sim.PanelSpec{degradationSpec}, sim.DegradationOptions{
			SimOptions: sim.SimOptions{Messages: 1000, Seed: 1983},
			ErrorRates: c.rates,
			Mix:        c.mix,
		})
		if err == nil {
			t.Errorf("%s: rates %v mix %+v accepted", c.name, c.rates, c.mix)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}
