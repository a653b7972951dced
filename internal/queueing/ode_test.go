package queueing

import (
	"math"
	"testing"

	"windowctl/internal/dist"
)

// TestODEMatchesSeriesSolution: the two derivation paths of §4.1 — the
// Beneš convolution series (eq. 4.4/4.7) and direct integration of the
// integro-differential equation (eq. 4.2a) — must produce the same loss.
func TestODEMatchesSeriesSolution(t *testing.T) {
	cases := []struct {
		name    string
		lambda  float64
		service dist.Distribution
		k       float64
	}{
		{"MM1", 0.8, dist.NewExponential(1), 2.5},
		{"MM1 overload", 1.4, dist.NewExponential(1), 2},
		{"MD1", 0.7, dist.NewDeterministic(1), 2},
		{"Erlang service", 0.5, dist.NewErlang(3, 3), 3},
		{"protocol service", 0.028, dist.NewShifted(dist.NewGeometricLattice(0.8, 1), 25), 60},
	}
	for _, c := range cases {
		series, err := ImpatientMG1{Lambda: c.lambda, Service: c.service}.Solve(c.k)
		if err != nil {
			t.Fatalf("%s series: %v", c.name, err)
		}
		ode, err := UnfinishedWorkODE{Lambda: c.lambda, Service: c.service}.Solve(c.k)
		if err != nil {
			t.Fatalf("%s ode: %v", c.name, err)
		}
		if math.Abs(series.Loss-ode.Loss) > 2e-3 {
			t.Errorf("%s: series loss %v vs ODE loss %v", c.name, series.Loss, ode.Loss)
		}
		if math.Abs(series.ServerIdle-ode.ServerIdle) > 2e-3 {
			t.Errorf("%s: series P0 %v vs ODE P0 %v", c.name, series.ServerIdle, ode.ServerIdle)
		}
	}
}

// TestODEWorkCDFProperties: the solved distribution must be a valid
// sub-CDF: F(0) = P(0), non-decreasing, F(K) = p(accept) <= 1.
func TestODEWorkCDFProperties(t *testing.T) {
	ode, err := UnfinishedWorkODE{Lambda: 0.9, Service: dist.NewExponential(1)}.Solve(3)
	if err != nil {
		t.Fatal(err)
	}
	f := ode.WorkCDF
	if math.Abs(f.Y[0]-ode.ServerIdle) > 1e-12 {
		t.Fatalf("F(0) = %v, want P(0) = %v", f.Y[0], ode.ServerIdle)
	}
	prev := f.Y[0]
	for i := 1; i < len(f.Y); i++ {
		if f.Y[i] < prev-1e-9 {
			t.Fatalf("work CDF decreasing at %d", i)
		}
		prev = f.Y[i]
	}
	accept := f.Y[len(f.Y)-1]
	if math.Abs((1-accept)-ode.Loss) > 1e-9 {
		t.Fatalf("F(K) = %v inconsistent with loss %v", accept, ode.Loss)
	}
}

// TestODEMatchesMM1ClosedFormDensity: for exponential service the
// unfinished-work density below K is P0·λ·e^{(λ−μ)w}; check the CDF shape
// against its integral.
func TestODEMatchesMM1ClosedFormDensity(t *testing.T) {
	lambda, mu, k := 0.6, 1.0, 2.0
	ode, err := UnfinishedWorkODE{Lambda: lambda, Service: dist.NewExponential(mu)}.Solve(k)
	if err != nil {
		t.Fatal(err)
	}
	p0 := ode.ServerIdle
	for _, w := range []float64{0.5, 1, 1.5, 2} {
		// F(w) = P0·(1 + λ/(λ−μ)·(e^{(λ−μ)w} − 1)) for λ ≠ μ.
		want := p0 * (1 + lambda/(lambda-mu)*(math.Exp((lambda-mu)*w)-1))
		got := ode.WorkCDF.Y[int(math.Round(w/ode.WorkCDF.Step))]
		if math.Abs(got-want) > 2e-3 {
			t.Fatalf("F(%v) = %v, closed form %v", w, got, want)
		}
	}
}

func TestODEValidation(t *testing.T) {
	svc := dist.NewExponential(1)
	cases := []UnfinishedWorkODE{
		{Lambda: 0, Service: svc},
		{Lambda: 1},
	}
	for i, c := range cases {
		if _, err := c.Solve(1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := (UnfinishedWorkODE{Lambda: 1, Service: svc}).Solve(0); err == nil {
		t.Error("K=0 accepted")
	}
}

func BenchmarkODESolve(b *testing.B) {
	o := UnfinishedWorkODE{Lambda: 0.028, Service: dist.NewShifted(dist.NewGeometricLattice(0.8, 1), 25)}
	for i := 0; i < b.N; i++ {
		if _, err := o.Solve(60); err != nil {
			b.Fatal(err)
		}
	}
}
