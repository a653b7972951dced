package queueing

import (
	"math"
	"testing"

	"windowctl/internal/dist"
	"windowctl/internal/numerics"
)

// gridServiceLaws covers the three service-law shapes the batched solvers
// must agree with their per-K counterparts on: no variance, memoryless,
// and in-between (Erlang-3).
func gridServiceLaws() map[string]dist.Distribution {
	return map[string]dist.Distribution{
		"deterministic": dist.Deterministic{Value: 1.3},
		"exponential":   dist.Exponential{Rate: 1 / 1.3},
		"erlang":        dist.Erlang{K: 3, Rate: 3 / 1.3},
	}
}

// SolveGrid must agree with per-K Solve on every constraint, including
// short constraints that fall on their own finer quadrature grid.
func TestSolveGridMatchesSolve(t *testing.T) {
	ks := []float64{0.4, 0.9, 1.3, 2.6, 3.9, 6.5, 10.4}
	for name, svc := range gridServiceLaws() {
		for _, lambda := range []float64{0.3, 0.7, 1.1} {
			q := ImpatientMG1{Lambda: lambda, Service: svc}
			grid, err := q.SolveGrid(ks)
			if err != nil {
				t.Fatalf("%s λ=%v: SolveGrid: %v", name, lambda, err)
			}
			for i, k := range ks {
				single, err := q.Solve(k)
				if err != nil {
					t.Fatalf("%s λ=%v K=%v: Solve: %v", name, lambda, k, err)
				}
				if d := math.Abs(grid[i].Loss - single.Loss); d > 1e-9 {
					t.Errorf("%s λ=%v K=%v: grid loss %v vs per-K %v (|Δ|=%g)",
						name, lambda, k, grid[i].Loss, single.Loss, d)
				}
				if grid[i].Terms != single.Terms {
					t.Errorf("%s λ=%v K=%v: grid summed %d terms, per-K %d",
						name, lambda, k, grid[i].Terms, single.Terms)
				}
			}
		}
	}
}

func TestLossFCFSGridMatchesPerK(t *testing.T) {
	ks := []float64{0, 0.4, 1.3, 2.6, 5.2, 10.4}
	for name, svc := range gridServiceLaws() {
		q := MG1{Lambda: 0.6, Service: svc}
		grid, err := q.LossFCFSGrid(ks)
		if err != nil {
			t.Fatalf("%s: LossFCFSGrid: %v", name, err)
		}
		for i, k := range ks {
			single, err := q.LossFCFS(k)
			if err != nil {
				t.Fatalf("%s K=%v: LossFCFS: %v", name, k, err)
			}
			if d := math.Abs(grid[i] - single); d > 1e-9 {
				t.Errorf("%s K=%v: grid %v vs per-K %v (|Δ|=%g)", name, k, grid[i], single, d)
			}
		}
	}
}

func TestLossLCFSGridMatchesPerK(t *testing.T) {
	ks := []float64{0.4, 1.3, 5.2}
	q := MG1{Lambda: 0.6, Service: dist.Exponential{Rate: 1 / 1.3}}
	grid, err := q.LossLCFSGrid(ks)
	if err != nil {
		t.Fatalf("LossLCFSGrid: %v", err)
	}
	for i, k := range ks {
		single, err := q.LossLCFS(k)
		if err != nil {
			t.Fatalf("K=%v: LossLCFS: %v", k, err)
		}
		if grid[i] != single {
			t.Errorf("K=%v: grid %v vs per-K %v", k, grid[i], single)
		}
	}
}

// The ProtocolModel grid entry points (including the fused LossGrids
// panel solver) must reproduce the per-K methods on a figure-7 style
// constraint grid mixing capped and uncapped window contents.
func TestProtocolModelGridsMatchPerK(t *testing.T) {
	for _, rhoPrime := range []float64{0.25, 0.75} {
		m := ProtocolModel{Tau: 1, M: 25, RhoPrime: rhoPrime}
		var ks []float64
		for _, km := range []float64{0.5, 1, 2, 4, 8} {
			ks = append(ks, km*m.M)
		}
		ctrl, err := m.ControlledLossGrid(ks)
		if err != nil {
			t.Fatalf("ρ'=%v: ControlledLossGrid: %v", rhoPrime, err)
		}
		fcfs, err := m.FCFSLossGrid(ks)
		if err != nil {
			t.Fatalf("ρ'=%v: FCFSLossGrid: %v", rhoPrime, err)
		}
		lcfs, err := m.LCFSLossGrid(ks)
		if err != nil {
			t.Fatalf("ρ'=%v: LCFSLossGrid: %v", rhoPrime, err)
		}
		joint, err := m.LossGrids(ks, AllCurves)
		if err != nil {
			t.Fatalf("ρ'=%v: LossGrids: %v", rhoPrime, err)
		}
		for i, k := range ks {
			want, err := m.ControlledLoss(k)
			if err != nil {
				t.Fatalf("ρ'=%v K=%v: ControlledLoss: %v", rhoPrime, k, err)
			}
			if d := math.Abs(ctrl[i].Loss - want.Loss); d > 1e-9 {
				t.Errorf("ρ'=%v K=%v: controlled grid %v vs per-K %v", rhoPrime, k, ctrl[i].Loss, want.Loss)
			}
			if d := math.Abs(joint.Controlled[i].Loss - want.Loss); d > 1e-9 {
				t.Errorf("ρ'=%v K=%v: joint controlled %v vs per-K %v", rhoPrime, k, joint.Controlled[i].Loss, want.Loss)
			}
			wantF, err := m.FCFSLoss(k)
			if err != nil {
				t.Fatalf("ρ'=%v K=%v: FCFSLoss: %v", rhoPrime, k, err)
			}
			if d := math.Abs(fcfs[i] - wantF); d > 1e-9 {
				t.Errorf("ρ'=%v K=%v: fcfs grid %v vs per-K %v", rhoPrime, k, fcfs[i], wantF)
			}
			if d := math.Abs(joint.FCFS[i] - wantF); d > 1e-9 {
				t.Errorf("ρ'=%v K=%v: joint fcfs %v vs per-K %v", rhoPrime, k, joint.FCFS[i], wantF)
			}
			wantL, err := m.LCFSLoss(k)
			if err != nil {
				t.Fatalf("ρ'=%v K=%v: LCFSLoss: %v", rhoPrime, k, err)
			}
			if lcfs[i] != wantL {
				t.Errorf("ρ'=%v K=%v: lcfs grid %v vs per-K %v", rhoPrime, k, lcfs[i], wantL)
			}
			if joint.LCFS[i] != wantL {
				t.Errorf("ρ'=%v K=%v: joint lcfs %v vs per-K %v", rhoPrime, k, joint.LCFS[i], wantL)
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
