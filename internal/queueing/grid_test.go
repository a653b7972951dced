package queueing

import (
	"fmt"
	"math"
	"testing"

	"windowctl/internal/dist"
	"windowctl/internal/numerics"
)

// gridCase is one model of the table that LossGrids, the only multi-K
// solver, is checked on against the per-K entry points: loads on both
// sides of the baselines' capacity, message lengths and constraints from
// deep inside the capped-window range (K/M = 0.02) to far past it, with a
// half slot time and with exponential and Erlang-3 message lengths too.
type gridCase struct {
	name  string
	model ProtocolModel
	ks    []float64
}

// gridCases builds the table.  Every case runs a dozen per-K
// convolution series per curve, so the axes that only rescale the
// service law (τ) or swap its transmission part are sampled, not crossed.
func gridCases() []gridCase {
	kms := []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1, 1.5, 2, 4, 8, 12, 20}
	lengths := []struct {
		name string
		law  func(mean float64) dist.Distribution
	}{
		{"fixed", func(float64) dist.Distribution { return nil }},
		{"exponential", func(mean float64) dist.Distribution { return dist.NewExponential(1 / mean) }},
		{"erlang", func(mean float64) dist.Distribution { return dist.NewErlang(3, 3/mean) }},
	}
	type point struct {
		rhoPrime, m, tau float64
		length           int // index into lengths
	}
	points := []point{{0.5, 25, 0.5, 0}, {1.2, 25, 0.5, 0}}
	for _, rhoPrime := range []float64{0.25, 0.5, 0.75, 0.9, 1.2, 2} {
		for _, m := range []float64{10, 25, 100} {
			points = append(points, point{rhoPrime, m, 1, 0})
		}
	}
	for _, rhoPrime := range []float64{0.25, 0.75, 1.2} {
		for l := 1; l < len(lengths); l++ {
			points = append(points, point{rhoPrime, 25, 1, l})
		}
	}
	cases := make([]gridCase, len(points))
	for i, p := range points {
		ks := make([]float64, len(kms))
		for j, km := range kms {
			ks[j] = km * p.m * p.tau
		}
		cases[i] = gridCase{
			name:  fmt.Sprintf("ρ′=%v M=%v τ=%v %s", p.rhoPrime, p.m, p.tau, lengths[p.length].name),
			model: ProtocolModel{Tau: p.tau, M: p.m, RhoPrime: p.rhoPrime, TxDist: lengths[p.length].law(p.m * p.tau)},
			ks:    ks,
		}
	}
	return cases
}

// A controlled value of LossGrids differs from its per-K ImpatientMG1
// solve only by the rounding of a longer tabulation (past saturation that
// rounding can also move where the z-series stops, by a loss far below
// 1e-9).
func TestSolveGridMatchesSolve(t *testing.T) {
	for _, c := range gridCases() {
		grids, err := c.model.LossGrids(c.ks, CurveControlled)
		if err != nil {
			t.Fatalf("%s: LossGrids: %v", c.name, err)
		}
		for i, k := range c.ks {
			want, err := c.model.ControlledLoss(k)
			if err != nil {
				t.Fatalf("%s K=%v: ControlledLoss: %v", c.name, k, err)
			}
			if got := grids.Controlled[i].Loss; !(math.Abs(got-want.Loss) <= 1e-9) {
				t.Errorf("%s K=%v: controlled %v, per-K %v", c.name, k, got, want.Loss)
			}
		}
	}
}

// An FCFS value of LossGrids matches the per-K Beneš series to 1e-9;
// where the baseline is unstable the per-K solve errors and the curve is
// NaN.
func TestLossFCFSGridMatchesPerK(t *testing.T) {
	for _, c := range gridCases() {
		grids, err := c.model.LossGrids(c.ks, CurveFCFS)
		if err != nil {
			t.Fatalf("%s: LossGrids: %v", c.name, err)
		}
		for i, k := range c.ks {
			want, err := c.model.FCFSLoss(k)
			if got := grids.FCFS[i]; err != nil && !math.IsNaN(got) || err == nil && !(math.Abs(got-want) <= 1e-9) {
				t.Errorf("%s K=%v: fcfs %v, per-K %v (err %v)", c.name, k, got, want, err)
			}
		}
	}
}

// An LCFS value of LossGrids is the per-K inversion itself, so the two
// are equal; where the baseline is unstable the curve is NaN.
func TestLossLCFSGridMatchesPerK(t *testing.T) {
	for _, c := range gridCases() {
		grids, err := c.model.LossGrids(c.ks, CurveLCFS)
		if err != nil {
			t.Fatalf("%s: LossGrids: %v", c.name, err)
		}
		for i, k := range c.ks {
			want, err := c.model.LCFSLoss(k)
			if got := grids.LCFS[i]; err != nil && !math.IsNaN(got) || err == nil && got != want {
				t.Errorf("%s K=%v: lcfs %v, per-K %v (err %v)", c.name, k, got, want, err)
			}
		}
	}
}

// Asked for every curve at once, LossGrids shares one series between
// the controlled and FCFS requests where it can; each curve must still
// match its per-K entry point as closely as when it is solved alone.
func TestProtocolModelGridsMatchPerK(t *testing.T) {
	for _, rhoPrime := range []float64{0.25, 0.75} {
		m := ProtocolModel{Tau: 1, M: 25, RhoPrime: rhoPrime}
		var ks []float64
		for _, km := range []float64{0.5, 1, 2, 4, 8} {
			ks = append(ks, km*m.M)
		}
		joint, err := m.LossGrids(ks, AllCurves)
		if err != nil {
			t.Fatalf("ρ′=%v: LossGrids: %v", rhoPrime, err)
		}
		for i, k := range ks {
			want, err := m.ControlledLoss(k)
			if err != nil {
				t.Fatalf("ρ′=%v K=%v: ControlledLoss: %v", rhoPrime, k, err)
			}
			if d := math.Abs(joint.Controlled[i].Loss - want.Loss); d > 1e-9 {
				t.Errorf("ρ′=%v K=%v: joint controlled %v vs per-K %v", rhoPrime, k, joint.Controlled[i].Loss, want.Loss)
			}
			wantF, err := m.FCFSLoss(k)
			if err != nil {
				t.Fatalf("ρ′=%v K=%v: FCFSLoss: %v", rhoPrime, k, err)
			}
			if d := math.Abs(joint.FCFS[i] - wantF); d > 1e-9 {
				t.Errorf("ρ′=%v K=%v: joint fcfs %v vs per-K %v", rhoPrime, k, joint.FCFS[i], wantF)
			}
			wantL, err := m.LCFSLoss(k)
			if err != nil {
				t.Fatalf("ρ′=%v K=%v: LCFSLoss: %v", rhoPrime, k, err)
			}
			if joint.LCFS[i] != wantL {
				t.Errorf("ρ′=%v K=%v: joint lcfs %v vs per-K %v", rhoPrime, k, joint.LCFS[i], wantL)
			}
		}
	}
}

// Past the baseline capacity the uncontrolled M/G/1 has no steady state:
// LossGrids must still solve the controlled curve (stable at any load) and
// report the baselines as NaN rather than failing the panel.
func TestLossGridsUnstableBaseline(t *testing.T) {
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: 1.1}
	q, err := m.baselineQueue()
	if err != nil {
		t.Fatalf("baselineQueue: %v", err)
	}
	if q.Rho() < 1 {
		t.Fatalf("baseline unexpectedly stable at ρ'=1.1 (ρ=%v); pick a higher load", q.Rho())
	}
	ks := []float64{25, 50}
	joint, err := m.LossGrids(ks, AllCurves)
	if err != nil {
		t.Fatalf("LossGrids: %v", err)
	}
	for i, k := range ks {
		want, err := m.ControlledLoss(k)
		if err != nil {
			t.Fatalf("K=%v: ControlledLoss: %v", k, err)
		}
		if d := math.Abs(joint.Controlled[i].Loss - want.Loss); d > 1e-9 {
			t.Errorf("K=%v: controlled %v vs per-K %v", k, joint.Controlled[i].Loss, want.Loss)
		}
		if !math.IsNaN(joint.FCFS[i]) || !math.IsNaN(joint.LCFS[i]) {
			t.Errorf("K=%v: baselines should be NaN past capacity, got fcfs=%v lcfs=%v",
				k, joint.FCFS[i], joint.LCFS[i])
		}
	}
}

// The whole point of the batched path: a figure-7 panel's analytic curves
// must cost at least 4x fewer FFT convolutions than per-K evaluation.
// On an uncapped constraint grid (K >= G*/λ') the controlled and FCFS
// series additionally fuse into a single convolution stream.
func TestLossGridsConvolutionSharing(t *testing.T) {
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.75}
	var ks []float64
	for _, km := range []float64{1.5, 2, 3, 4, 6, 8} {
		ks = append(ks, km*m.M)
	}

	before := numerics.ConvolveFFTCount()
	if _, err := m.LossGrids(ks, AllCurves); err != nil {
		t.Fatalf("LossGrids: %v", err)
	}
	batched := numerics.ConvolveFFTCount() - before

	before = numerics.ConvolveFFTCount()
	for _, k := range ks {
		if _, err := m.ControlledLoss(k); err != nil {
			t.Fatalf("ControlledLoss(%v): %v", k, err)
		}
		if _, err := m.FCFSLoss(k); err != nil {
			t.Fatalf("FCFSLoss(%v): %v", k, err)
		}
	}
	perK := numerics.ConvolveFFTCount() - before

	if batched == 0 || perK == 0 {
		t.Fatalf("convolution counter did not advance (batched=%d, perK=%d)", batched, perK)
	}
	if ratio := float64(perK) / float64(batched); ratio < 4 {
		t.Errorf("batched panel used %d convolutions vs %d per-K (ratio %.2fx, want >= 4x)",
			batched, perK, ratio)
	} else {
		t.Logf("convolution sharing: %d batched vs %d per-K (%.1fx)", batched, perK, ratio)
	}
}

// LossGrids solves only the curves it is asked for, and a curve's values
// do not depend on which other curves ride along.  Unstable baselines
// cost nothing: at ρ′ = 8 with K/M = 10⁶ a baselines-only call makes no
// convolution (eq 4.7 there would tabulate 10⁸ grid points).
func TestLossGridsCurveSelection(t *testing.T) {
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.75}
	var ks []float64
	for _, km := range []float64{0.05, 0.5, 1, 2, 8} {
		ks = append(ks, km*m.M)
	}
	all, err := m.LossGrids(ks, AllCurves)
	if err != nil {
		t.Fatalf("LossGrids(AllCurves): %v", err)
	}
	for want := Curves(1); want <= AllCurves; want++ {
		got, err := m.LossGrids(ks, want)
		if err != nil {
			t.Fatalf("LossGrids(%03b): %v", want, err)
		}
		if (got.Controlled != nil) != (want&CurveControlled != 0) ||
			(got.FCFS != nil) != (want&CurveFCFS != 0) || (got.LCFS != nil) != (want&CurveLCFS != 0) {
			t.Fatalf("LossGrids(%03b): curves present controlled=%v fcfs=%v lcfs=%v",
				want, got.Controlled != nil, got.FCFS != nil, got.LCFS != nil)
		}
		for i, k := range ks {
			if got.Controlled != nil && got.Controlled[i] != all.Controlled[i] {
				t.Errorf("LossGrids(%03b) K=%v: controlled %+v, %+v with every curve", want, k, got.Controlled[i], all.Controlled[i])
			}
			if got.FCFS != nil && math.Float64bits(got.FCFS[i]) != math.Float64bits(all.FCFS[i]) {
				t.Errorf("LossGrids(%03b) K=%v: fcfs %.17g, %.17g with every curve", want, k, got.FCFS[i], all.FCFS[i])
			}
			if got.LCFS != nil && math.Float64bits(got.LCFS[i]) != math.Float64bits(all.LCFS[i]) {
				t.Errorf("LossGrids(%03b) K=%v: lcfs %.17g, %.17g with every curve", want, k, got.LCFS[i], all.LCFS[i])
			}
		}
	}

	over := ProtocolModel{Tau: 1, M: 25, RhoPrime: 8}
	before := numerics.ConvolveFFTCount()
	got, err := over.LossGrids([]float64{25e6}, CurveFCFS|CurveLCFS)
	if err != nil {
		t.Fatalf("ρ′=8 baselines: %v", err)
	}
	if n := numerics.ConvolveFFTCount() - before; n != 0 {
		t.Errorf("ρ′=8 baselines: %d convolutions for an unstable queue, want 0", n)
	}
	if got.Controlled != nil || !math.IsNaN(got.FCFS[0]) || !math.IsNaN(got.LCFS[0]) {
		t.Errorf("ρ′=8 baselines: controlled %v, fcfs %v, lcfs %v; want nil, NaN, NaN", got.Controlled, got.FCFS[0], got.LCFS[0])
	}
}
