package dist

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"windowctl/internal/rngutil"
)

// realLST is the real-valued closed form of E[e^{-sX}] for s >= 0, written
// with float arithmetic only, independently of the complex LST methods.
func realLST(d Distribution, s float64) float64 {
	switch v := d.(type) {
	case Deterministic:
		return math.Exp(-s * v.Value)
	case Exponential:
		return v.Rate / (v.Rate + s)
	case Erlang:
		return math.Pow(v.Rate/(v.Rate+s), float64(v.K))
	case GeometricLattice:
		return (1 - v.Q) / (1 - v.Q*math.Exp(-s*v.Step))
	case Shifted:
		return math.Exp(-s*v.Offset) * realLST(v.Base, s)
	case *Empirical:
		sum := 0.0
		for i, x := range v.xs {
			sum += v.ps[i] * math.Exp(-s*x)
		}
		return sum
	}
	panic(fmt.Sprintf("realLST: no closed form for %T", d))
}

// TestLSTComplexMatchesRealOnAxis: on the real axis the complex LST must
// coincide with the real closed form, for every law.
func TestLSTComplexMatchesRealOnAxis(t *testing.T) {
	for _, d := range allLaws() {
		for s := 0.0; s <= 5; s += 0.25 {
			got := d.LST(complex(s, 0))
			want := realLST(d, s)
			if math.Abs(real(got)-want) > 1e-10 || math.Abs(imag(got)) > 1e-10 {
				t.Fatalf("%v at s=%v: complex %v vs real %v", d, s, got, want)
			}
		}
	}
}

// TestLSTComplexCharacteristicConsistency: |φ(iω)| <= 1 for all ω — the
// transform on the imaginary axis is a characteristic function.
func TestLSTComplexCharacteristicConsistency(t *testing.T) {
	for _, d := range allLaws() {
		for w := -10.0; w <= 10; w += 0.5 {
			v := d.LST(complex(0, w))
			if cmplx.Abs(v) > 1+1e-10 {
				t.Fatalf("%v: |phi(i%v)| = %v > 1", d, w, cmplx.Abs(v))
			}
		}
	}
}

// TestLSTComplexMonteCarlo cross-checks E[e^{-sX}] at a complex point by
// sampling.
func TestLSTComplexMonteCarlo(t *testing.T) {
	r := rngutil.New(71)
	s := complex(0.5, 0.7)
	for _, d := range allLaws() {
		want := d.LST(s)
		st := r.Spawn()
		const n = 200000
		var acc complex128
		for i := 0; i < n; i++ {
			acc += cmplx.Exp(-s * complex(d.Sample(st), 0))
		}
		got := acc / complex(n, 0)
		if cmplx.Abs(got-want) > 0.01 {
			t.Fatalf("%v: MC %v vs analytic %v", d, got, want)
		}
	}
}
