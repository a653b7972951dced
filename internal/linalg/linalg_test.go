package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"windowctl/internal/rngutil"
)

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// residualNorm returns ‖A·x − b‖∞, the check that a solve is a solution.
func residualNorm(a *Matrix, x, b []float64) float64 {
	worst := 0.0
	for i := 0; i < a.Rows; i++ {
		ax := 0.0
		for j := 0; j < a.Cols; j++ {
			ax += a.At(i, j) * x[j]
		}
		worst = math.Max(worst, math.Abs(ax-b[i]))
	}
	return worst
}

func TestIdentitySolve(t *testing.T) {
	a := identity(4)
	b := []float64{1, 2, 3, 4}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-14 {
			t.Fatalf("identity solve: x=%v", x)
		}
	}
}

func TestKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  => x = 1, y = 3.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solve got %v, want [1 3]", x)
	}
}

func TestPivotingRequired(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("pivoted solve got %v, want [3 2]", x)
	}
}

func TestSingularDetected(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix not detected")
	}
}

func TestFactorReuse(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	// Solve two right-hand sides with the same factorization.
	x1, err := f.Solve([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	x2, err := f.Solve([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := residualNorm(a, x1, []float64{1, 0}); r > 1e-12 {
		t.Fatalf("residual 1: %v", r)
	}
	if r := residualNorm(a, x2, []float64{0, 1}); r > 1e-12 {
		t.Fatalf("residual 2: %v", r)
	}
}

func TestDimensionErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Factor(a); err == nil {
		t.Fatal("non-square factor accepted")
	}
	sq := identity(2)
	f, _ := Factor(sq)
	if _, err := f.Solve([]float64{1, 2, 3}); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
}

func TestPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewMatrix(0, 1) },
		func() { NewMatrix(1, 1).At(1, 0) },
		func() { NewMatrix(1, 1).Set(0, 2, 1) },
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

// Property: random diagonally dominant systems solve with tiny residuals.
func TestRandomSystemsProperty(t *testing.T) {
	f := func(seed uint64, sz uint8) bool {
		n := int(sz%8) + 2
		r := rngutil.New(seed)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				v := 2*r.Float64() - 1
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			a.Add(i, i, rowSum+1) // ensure non-singularity
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 10 * (r.Float64() - 0.5)
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		return residualNorm(a, x, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolve100(b *testing.B) {
	r := rngutil.New(1)
	n := 100
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.Float64())
		}
		a.Add(i, i, float64(n))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
