package queueing

import (
	"math"
	"testing"

	"windowctl/internal/sched"
)

func TestOptimalWindowContentCachedAndPlausible(t *testing.T) {
	g1 := OptimalWindowContent()
	g2 := OptimalWindowContent()
	if g1 != g2 {
		t.Fatal("cached value changed")
	}
	if g1 < 0.5 || g1 > 3 {
		t.Fatalf("G* = %v outside plausible range", g1)
	}
}

func TestProtocolModelLambdaAndContent(t *testing.T) {
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.5}
	if math.Abs(m.Lambda()-0.02) > 1e-12 {
		t.Fatalf("lambda = %v, want 0.02", m.Lambda())
	}
	gStar := OptimalWindowContent()
	// Large K: the heuristic optimum applies.
	if g := m.WindowContent(1e6); g != gStar {
		t.Fatalf("uncapped content %v, want %v", g, gStar)
	}
	// Small K: content capped at λ′·K.
	if g := m.WindowContent(10); math.Abs(g-0.2) > 1e-12 {
		t.Fatalf("capped content %v, want 0.2", g)
	}
}

func TestServiceMeanComposition(t *testing.T) {
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.5}
	g := 1.0
	svc, err := m.Service(g)
	if err != nil {
		t.Fatal(err)
	}
	want := 25 + sched.Analyze(g).ResolutionSlots
	if math.Abs(svc.Mean()-want) > 1e-9 {
		t.Fatalf("service mean %v, want %v", svc.Mean(), want)
	}
	// Empty-probe variant is strictly larger.
	m2 := m
	m2.IncludeEmptyProbes = true
	svc2, err := m2.Service(g)
	if err != nil {
		t.Fatal(err)
	}
	if svc2.Mean() <= svc.Mean() {
		t.Fatal("empty probes did not add service time")
	}
	// Exact mode mean matches the geometric mode mean.
	m3 := m
	m3.Mode = ExactScheduling
	svc3, err := m3.Service(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(svc3.Mean()-want) > 0.01 {
		t.Fatalf("exact service mean %v, want %v", svc3.Mean(), want)
	}
	// Zero content degenerates to the bare transmission time.
	svc0, err := m.Service(0)
	if err != nil {
		t.Fatal(err)
	}
	if svc0.Mean() != 25 {
		t.Fatalf("zero-content service mean %v", svc0.Mean())
	}
}

func TestControlledLossCurveShape(t *testing.T) {
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.5}
	prev := 1.1
	for _, k := range []float64{5, 12.5, 25, 50, 100, 200} {
		res, err := m.ControlledLoss(k)
		if err != nil {
			t.Fatalf("K=%v: %v", k, err)
		}
		if res.Loss < 0 || res.Loss > 1 {
			t.Fatalf("K=%v: loss %v out of range", k, res.Loss)
		}
		if res.Loss > prev+1e-9 {
			t.Fatalf("loss not monotone in K at %v: %v > %v", k, res.Loss, prev)
		}
		prev = res.Loss
	}
	// Loose constraint: negligible loss at ρ′ = .5.
	if prev > 0.01 {
		t.Fatalf("loss at K=200 still %v", prev)
	}
}

func TestControlledBeatsBaselinesAcrossPanel(t *testing.T) {
	// One figure-7-style panel: the controlled curve must dominate both
	// uncontrolled baselines for all K.
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.75}
	for _, k := range []float64{25, 50, 100, 200, 400} {
		c, err := m.ControlledLoss(k)
		if err != nil {
			t.Fatal(err)
		}
		f, err := m.FCFSLoss(k)
		if err != nil {
			t.Fatal(err)
		}
		l, err := m.LCFSLoss(k)
		if err != nil {
			t.Fatal(err)
		}
		// 5e-4 absorbs grid-truncation noise where both losses are ~0.
		const tol = 5e-4
		if c.Loss > f+tol {
			t.Fatalf("K=%v: controlled %v worse than FCFS %v", k, c.Loss, f)
		}
		if c.Loss > l+tol {
			t.Fatalf("K=%v: controlled %v worse than LCFS %v", k, c.Loss, l)
		}
	}
}

func TestLossOrderedByLoad(t *testing.T) {
	// Higher ρ′ must produce higher loss at the same K — the ordering of
	// the figure-7 panels.
	k := 75.0
	prev := -1.0
	for _, rp := range []float64{0.25, 0.5, 0.75} {
		m := ProtocolModel{Tau: 1, M: 25, RhoPrime: rp}
		res, err := m.ControlledLoss(k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Loss < prev {
			t.Fatalf("loss not increasing in load at ρ′=%v: %v < %v", rp, res.Loss, prev)
		}
		prev = res.Loss
	}
}

func TestProtocolModelValidation(t *testing.T) {
	bad := []ProtocolModel{
		{Tau: 0, M: 25, RhoPrime: 0.5},
		{Tau: 1, M: 0, RhoPrime: 0.5},
		{Tau: 1, M: 25, RhoPrime: 0},
	}
	for i, m := range bad {
		if _, err := m.ControlledLoss(10); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.5}
	if _, err := m.ControlledLoss(0); err == nil {
		t.Error("K=0 accepted")
	}
	m.Mode = SchedulingMode(99)
	if _, err := m.Service(1); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestCapacity(t *testing.T) {
	// Capacity approaches 1 for long messages and degrades for short.
	c25 := Capacity(25)
	c100 := Capacity(100)
	c1 := Capacity(1)
	if !(c1 < c25 && c25 < c100 && c100 < 1) {
		t.Fatalf("capacity ordering broken: %v %v %v", c1, c25, c100)
	}
	if c25 < 0.9 || c25 > 0.99 {
		t.Fatalf("capacity(25) = %v implausible", c25)
	}
	// Consistency with the service model: at load = capacity the
	// utilization including overhead is exactly 1.
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: c25, IncludeEmptyProbes: true}
	svcAll, err := m.Service(OptimalWindowContent())
	if err != nil {
		t.Fatal(err)
	}
	rho := m.Lambda() * svcAll.Mean()
	if math.Abs(rho-1) > 1e-9 {
		t.Fatalf("rho at capacity = %v, want 1", rho)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-positive M accepted")
			}
		}()
		Capacity(0)
	}()
}

func TestControlledLossCurveCoupled(t *testing.T) {
	m := ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.75}
	ks := []float64{5, 12.5, 25, 50, 100}
	curve, err := m.ControlledLossCurve(ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(ks) {
		t.Fatal("curve length")
	}
	prev := 1.1
	for i, res := range curve {
		if res.Loss > prev+1e-9 {
			t.Fatalf("coupled curve not monotone at K=%v", ks[i])
		}
		prev = res.Loss
		// The coupled and uncoupled models must agree closely — the
		// coupling is a second-order correction.
		plain, err := m.ControlledLoss(ks[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Loss-plain.Loss) > 0.15*plain.Loss+0.01 {
			t.Fatalf("K=%v: coupled %v vs plain %v", ks[i], res.Loss, plain.Loss)
		}
	}
	// Validation of inputs.
	if _, err := m.ControlledLossCurve([]float64{5, 5}); err == nil {
		t.Fatal("non-ascending grid accepted")
	}
	if _, err := m.ControlledLossCurve([]float64{0}); err == nil {
		t.Fatal("zero K accepted")
	}
}

func TestGeometricVsExactModeAgree(t *testing.T) {
	// The two scheduling models should give very close loss values: the
	// scheduling overhead is a small part of the service time.
	for _, rp := range []float64{0.25, 0.75} {
		mg := ProtocolModel{Tau: 1, M: 25, RhoPrime: rp}
		me := ProtocolModel{Tau: 1, M: 25, RhoPrime: rp, Mode: ExactScheduling}
		for _, k := range []float64{25, 100} {
			rg, err := mg.ControlledLoss(k)
			if err != nil {
				t.Fatal(err)
			}
			re, err := me.ControlledLoss(k)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(rg.Loss-re.Loss) > 0.01 {
				t.Fatalf("ρ′=%v K=%v: geometric %v vs exact %v", rp, k, rg.Loss, re.Loss)
			}
		}
	}
}

// TestControlledLossPastSaturation solves eq. 4.7 past saturation over
// Figure 7's K/M axis.  For ρ > 1 the loss 1 − z/(1+ρz) lies in
// [1 − 1/ρ, 1] for every z, and the series stops once the loss is pinned
// within tol of its floor.  Before that rule the series ran into
// "convolution series did not converge in 4096 terms" after seconds (ρ′
// = 50 at K/M ≥ 3, ρ′ = 5 at K/M = 8) or returned a NaN loss with a nil
// error (ρ′ = 10⁹ at K/M ≤ 1).  Where the unfinished-work ODE is finite
// it is an independent path to the same loss.
func TestControlledLossPastSaturation(t *testing.T) {
	const m = 25
	for _, rhoPrime := range []float64{2, 5, 50, 1e9} {
		for _, km := range []float64{0.5, 1, 1.5, 2, 3, 4, 6, 8} { // Figure 7's K/M axis
			model := ProtocolModel{Tau: 1, M: m, RhoPrime: rhoPrime}
			k := km * m
			res, err := model.ControlledLoss(k)
			if err != nil {
				t.Errorf("ρ′=%g K/M=%g: %v", rhoPrime, km, err)
				continue
			}
			// The loss may round one ulp below the floor once z is huge.
			floor := 1 - 1/res.Rho
			if math.IsNaN(res.Loss) || res.Loss < floor-1e-15 || res.Loss > 1 {
				t.Errorf("ρ′=%g K/M=%g: loss %v outside [1 − 1/ρ, 1] = [%v, 1] (ρ=%v)",
					rhoPrime, km, res.Loss, floor, res.Rho)
				continue
			}
			svc, err := model.Service(model.WindowContent(k))
			if err != nil {
				t.Fatal(err)
			}
			ode, err := UnfinishedWorkODE{Lambda: model.Lambda(), Service: svc, Steps: 8192}.Solve(k)
			if err != nil || math.IsNaN(ode.Loss) || math.IsInf(ode.Loss, 0) {
				continue
			}
			if d := math.Abs(ode.Loss - res.Loss); d > 1e-5 {
				t.Errorf("ρ′=%g K/M=%g: eq. 4.7 loss %v, ODE %v (|Δ| = %.3g > 1e-5)",
					rhoPrime, km, res.Loss, ode.Loss, d)
			}
		}
	}
}
