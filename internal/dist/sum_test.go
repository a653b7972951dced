package dist

import (
	"math"
	"testing"

	"windowctl/internal/rngutil"
)

func TestAtomizeLaws(t *testing.T) {
	// Deterministic: single atom.
	e, err := Atomize(NewDeterministic(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	xs, ps := e.Support()
	if len(xs) != 1 || xs[0] != 3 || ps[0] != 1 {
		t.Fatalf("deterministic atoms: %v %v", xs, ps)
	}
	// Geometric lattice: mass conserved, mean preserved.
	g := NewGeometricLattice(2, 0.5)
	e, err = Atomize(g, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Mean()-g.Mean()) > 1e-6 {
		t.Fatalf("atomized mean %v vs %v", e.Mean(), g.Mean())
	}
	_, ps = e.Support()
	sum := 0.0
	for _, p := range ps {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("atom mass %v", sum)
	}
	// Shifted discrete law.
	e, err = Atomize(NewShifted(NewDeterministic(1), 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	xs, _ = e.Support()
	if xs[0] != 3 {
		t.Fatalf("shifted atom at %v", xs[0])
	}
	// Zero-mean lattice degenerates to the zero atom.
	e, err = Atomize(NewGeometricLattice(0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mean() != 0 {
		t.Fatal("zero lattice not degenerate")
	}
	// Continuous laws refuse.
	if _, err := Atomize(NewExponential(1), 0); err == nil {
		t.Fatal("continuous law atomized")
	}
	if _, err := Atomize(NewShifted(NewExponential(1), 1), 0); err == nil {
		t.Fatal("shifted continuous law atomized")
	}
}

func TestAtomicSumAgainstConvolutionFacts(t *testing.T) {
	// D = atoms {0: .5, 1: .5}; Y = Exp(1).  Then
	// F(t) = .5·F_Y(t) + .5·F_Y(t−1).
	d, err := NewEmpirical([]float64{0, 1}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	y := NewExponential(1)
	s, err := NewAtomicSum(d, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.2, 0.9, 1.5, 4} {
		want := 0.5*y.CDF(x) + 0.5*y.CDF(x-1)
		if math.Abs(s.CDF(x)-want) > 1e-12 {
			t.Fatalf("CDF(%v) = %v, want %v", x, s.CDF(x), want)
		}
	}
	if math.Abs(s.Mean()-1.5) > 1e-12 {
		t.Fatalf("mean %v", s.Mean())
	}
	// LST factorizes.
	if u := complex(0.7, 0.3); s.LST(u) != d.LST(u)*y.LST(u) {
		t.Fatal("LST does not factorize")
	}
}

func TestAtomicSumSampling(t *testing.T) {
	d, _ := NewEmpirical([]float64{0, 2}, []float64{1, 3})
	y := NewShifted(NewExponential(2), 1)
	s, err := NewAtomicSum(d, y)
	if err != nil {
		t.Fatal(err)
	}
	r := rngutil.New(81)
	const n = 200000
	mean := 0.0
	for i := 0; i < n; i++ {
		v := s.Sample(r)
		if v < 1 {
			t.Fatalf("sample %v outside support", v)
		}
		mean += v
	}
	mean /= n
	if math.Abs(mean-s.Mean()) > 0.01 {
		t.Fatalf("sampled mean %v vs %v", mean, s.Mean())
	}
}

func TestAtomicSumValidation(t *testing.T) {
	if _, err := NewAtomicSum(nil, NewExponential(1)); err == nil {
		t.Fatal("nil atoms accepted")
	}
	d, _ := NewEmpirical([]float64{0}, []float64{1})
	if _, err := NewAtomicSum(d, nil); err == nil {
		t.Fatal("nil second law accepted")
	}
}
