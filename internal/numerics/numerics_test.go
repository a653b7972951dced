package numerics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", what, got, want, tol)
	}
}

// --- Grid -----------------------------------------------------------------

func TestGridIntegral(t *testing.T) {
	// ∫₀² 2x dx = 4; trapezoid is exact for linear functions.
	g := Tabulate(func(x float64) float64 { return 2 * x }, 0.01, 201)
	almost(t, g.IntegralTo(1), 1, 1e-9, "partial integral")
	almost(t, g.IntegralTo(0.505), 0.505*0.505, 1e-6, "fractional endpoint")
	almost(t, g.IntegralTo(-1), 0, 0, "negative endpoint")
	almost(t, g.IntegralTo(100), 4, 1e-9, "clamped endpoint")
}

func TestGridPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewGrid(0, 5) },
		func() { NewGrid(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// --- Minimization -----------------------------------------------------------

func TestGoldenSection(t *testing.T) {
	min := GoldenSection(func(x float64) float64 { return (x - 1.7) * (x - 1.7) }, 0, 5, 1e-9)
	almost(t, min, 1.7, 1e-7, "quadratic minimum")
	// Reversed bounds are tolerated.
	min = GoldenSection(func(x float64) float64 { return (x - 1.7) * (x - 1.7) }, 5, 0, 1e-9)
	almost(t, min, 1.7, 1e-7, "reversed bounds")
}

// --- Laplace inversion -----------------------------------------------------

func TestInvertLaplaceEulerKnownTransforms(t *testing.T) {
	cases := []struct {
		name string
		L    LaplaceFunc
		f    func(float64) float64
	}{
		{"exp(-t)", func(s complex128) complex128 { return 1 / (s + 1) },
			func(t float64) float64 { return math.Exp(-t) }},
		{"t*exp(-t)", func(s complex128) complex128 { return 1 / ((s + 1) * (s + 1)) },
			func(t float64) float64 { return t * math.Exp(-t) }},
		{"sin(t)", func(s complex128) complex128 { return 1 / (s*s + 1) },
			math.Sin},
		{"constant 1", func(s complex128) complex128 { return 1 / s },
			func(float64) float64 { return 1 }},
	}
	for _, tc := range cases {
		for _, x := range []float64{0.25, 0.5, 1, 2, 5} {
			got := InvertLaplaceEuler(tc.L, x)
			want := tc.f(x)
			almost(t, got, want, 1e-6, tc.name)
		}
	}
}

func TestSolveFunctionalFixedPoint(t *testing.T) {
	// Busy period of M/M/1: θ(s) = μ/(μ+s+λ−λθ); closed form known.
	lambda, mu, s := 0.5, 1.0, 0.3
	theta := SolveFunctionalFixedPoint(func(th complex128) complex128 {
		return complex(mu, 0) / (complex(mu+s+lambda, 0) - complex(lambda, 0)*th)
	}, 1e-14, 10000)
	// θ = [ (λ+μ+s) − sqrt((λ+μ+s)² − 4λμ) ] / (2λ).
	a := lambda + mu + s
	want := (a - math.Sqrt(a*a-4*lambda*mu)) / (2 * lambda)
	almost(t, real(theta), want, 1e-9, "M/M/1 busy period LST")
	almost(t, imag(theta), 0, 1e-12, "real transform stays real")
}

func TestInversionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for t<=0")
		}
	}()
	InvertLaplaceEuler(func(s complex128) complex128 { return 1 / s }, 0)
}

// Property: Grid.IntegralTo is monotone in its endpoint for non-negative
// integrands.
func TestIntegralMonotoneProperty(t *testing.T) {
	g := Tabulate(func(x float64) float64 { return math.Abs(math.Sin(3 * x)) }, 0.01, 500)
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 5)
		y := x + math.Mod(math.Abs(b), 5)
		return g.IntegralTo(x) <= g.IntegralTo(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInvertLaplaceEuler(b *testing.B) {
	L := func(s complex128) complex128 { return 1 / (s + 1) }
	for i := 0; i < b.N; i++ {
		_ = InvertLaplaceEuler(L, 1.0)
	}
}
