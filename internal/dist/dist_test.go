package dist

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"windowctl/internal/rngutil"
)

// allLaws returns a representative instance of every Distribution for
// table-driven invariant testing.
func allLaws() []Distribution {
	emp, err := NewEmpirical([]float64{0, 1, 2.5, 4}, []float64{1, 2, 3, 4})
	if err != nil {
		panic(err)
	}
	return []Distribution{
		NewDeterministic(3),
		NewExponential(0.5),
		NewErlang(3, 2),
		NewGeometricLattice(1.5, 0.25),
		NewShifted(NewExponential(1), 2),
		emp,
	}
}

func TestSampleMeanMatchesMean(t *testing.T) {
	r := rngutil.New(99)
	for _, d := range allLaws() {
		st := r.Spawn()
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += d.Sample(st)
		}
		mean := sum / n
		want := d.Mean()
		tol := 0.02*want + 0.02
		if math.Abs(mean-want) > tol {
			t.Errorf("%v: sample mean %v, want %v", d, mean, want)
		}
	}
}

// secondMoment reads E[X²] off the transform's curvature at the origin:
// Re LST(iω) = E[cos ωX] = 1 − ω²E[X²]/2 + O(ω⁴).
func secondMoment(d Distribution) float64 {
	const w = 1e-4
	return 2 * (1 - real(d.LST(complex(0, w)))) / (w * w)
}

// The sampler's second moment must match the transform's.
func TestSampleSecondMomentMatches(t *testing.T) {
	r := rngutil.New(100)
	for _, d := range allLaws() {
		st := r.Spawn()
		const n = 300000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := d.Sample(st)
			sum += v * v
		}
		m2 := sum / n
		want := secondMoment(d)
		tol := 0.03*want + 0.03
		if math.Abs(m2-want) > tol {
			t.Errorf("%v: sample E[X²] %v, want %v", d, m2, want)
		}
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	for _, d := range allLaws() {
		prev := -1.0
		for x := -1.0; x <= 20; x += 0.05 {
			c := d.CDF(x)
			if c < 0 || c > 1 {
				t.Fatalf("%v: CDF(%v)=%v outside [0,1]", d, x, c)
			}
			if c < prev-1e-12 {
				t.Fatalf("%v: CDF decreased at %v", d, x)
			}
			prev = c
		}
		if d.CDF(-0.5) != 0 {
			t.Errorf("%v: CDF(-0.5) != 0", d)
		}
		if d.CDF(1e6) < 1-1e-9 {
			t.Errorf("%v: CDF(1e6) = %v, want ~1", d, d.CDF(1e6))
		}
	}
}

// On the real axis the transform is real, LST(0) = 1, and it falls
// monotonically within [0, 1].
func TestLSTBasicProperties(t *testing.T) {
	for _, d := range allLaws() {
		if got := d.LST(0); cmplx.Abs(got-1) > 1e-9 {
			t.Errorf("%v: LST(0)=%v, want 1", d, got)
		}
		prev := 1.0
		for s := 0.1; s < 10; s += 0.1 {
			z := d.LST(complex(s, 0))
			if math.Abs(imag(z)) > 1e-12 {
				t.Fatalf("%v: LST(%v)=%v is not real", d, s, z)
			}
			v := real(z)
			if v < 0 || v > 1+1e-12 {
				t.Fatalf("%v: LST(%v)=%v outside [0,1]", d, s, v)
			}
			if v > prev+1e-12 {
				t.Fatalf("%v: LST increased at s=%v", d, s)
			}
			prev = v
		}
	}
}

// LST'(0) = -mean: check by finite differences.
func TestLSTDerivativeIsMean(t *testing.T) {
	for _, d := range allLaws() {
		h := 1e-6
		deriv := (real(d.LST(complex(h, 0))) - 1) / h
		if math.Abs(-deriv-d.Mean()) > 1e-3*(1+d.Mean()) {
			t.Errorf("%v: -LST'(0) = %v, want mean %v", d, -deriv, d.Mean())
		}
	}
}

func TestCDFMatchesSampledFrequencies(t *testing.T) {
	r := rngutil.New(101)
	for _, d := range allLaws() {
		st := r.Spawn()
		const n = 100000
		// Check at the 3 quartile-ish points of each law.
		probe := []float64{0.5 * d.Mean(), d.Mean(), 2 * d.Mean()}
		counts := make([]int, len(probe))
		for i := 0; i < n; i++ {
			v := d.Sample(st)
			for j, p := range probe {
				if v <= p {
					counts[j]++
				}
			}
		}
		for j, p := range probe {
			got := float64(counts[j]) / n
			want := d.CDF(p)
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%v: empirical CDF(%v)=%v, analytic %v", d, p, got, want)
			}
		}
	}
}

func TestDeterministicExact(t *testing.T) {
	d := NewDeterministic(2.5)
	if d.CDF(2.4999) != 0 || d.CDF(2.5) != 1 {
		t.Fatal("deterministic CDF step misplaced")
	}
	r := rngutil.New(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 2.5 {
			t.Fatal("deterministic sample varies")
		}
	}
}

func TestErlangCDFAgainstExponential(t *testing.T) {
	// Erlang(1, rate) must coincide with Exponential(rate).
	e1 := NewErlang(1, 0.7)
	ex := NewExponential(0.7)
	for x := 0.0; x < 10; x += 0.3 {
		if math.Abs(e1.CDF(x)-ex.CDF(x)) > 1e-12 {
			t.Fatalf("Erlang(1) CDF differs from exponential at %v", x)
		}
	}
}

func TestGeometricLatticeMeanAndCDF(t *testing.T) {
	g := NewGeometricLattice(3, 0.5) // mean 3 steps of 0.5 => mean 1.5
	if math.Abs(g.Mean()-1.5) > 1e-12 {
		t.Fatalf("geometric lattice mean %v, want 1.5", g.Mean())
	}
	// P(X = 0) = 1-q = 1/4.
	if math.Abs(g.CDF(0)-0.25) > 1e-12 {
		t.Fatalf("P(X<=0) = %v, want 0.25", g.CDF(0))
	}
	// Zero mean degenerates to the constant 0.
	z := NewGeometricLattice(0, 1)
	r := rngutil.New(2)
	for i := 0; i < 10; i++ {
		if z.Sample(r) != 0 {
			t.Fatal("zero-mean geometric lattice sampled nonzero")
		}
	}
}

func TestShiftedComposition(t *testing.T) {
	base := NewExponential(1)
	s := NewShifted(base, 3)
	if math.Abs(s.Mean()-4) > 1e-12 {
		t.Fatalf("shifted mean %v, want 4", s.Mean())
	}
	// LST(u) = e^{−3u}/(1+u) for Exp(1) shifted by 3.
	if got, want := s.LST(0.5), complex(math.Exp(-1.5)/1.5, 0); cmplx.Abs(got-want) > 1e-12 {
		t.Fatalf("shifted LST(0.5) %v, want %v", got, want)
	}
	if s.CDF(2.9) != 0 {
		t.Fatal("shifted CDF nonzero below offset")
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical(nil, nil); err == nil {
		t.Fatal("empty empirical accepted")
	}
	if _, err := NewEmpirical([]float64{1, 1}, []float64{1, 1}); err == nil {
		t.Fatal("non-ascending support accepted")
	}
	if _, err := NewEmpirical([]float64{1}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewEmpirical([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero-mass empirical accepted")
	}
	if _, err := NewEmpirical([]float64{-1, 0}, []float64{1, 1}); err == nil {
		t.Fatal("negative support accepted")
	}
}

func TestEmpiricalExactValues(t *testing.T) {
	e, err := NewEmpirical([]float64{0, 1, 2}, []float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Mean()-(0*0.25+1*0.25+2*0.5)) > 1e-12 {
		t.Fatalf("empirical mean wrong: %v", e.Mean())
	}
	if math.Abs(e.CDF(1)-0.5) > 1e-12 {
		t.Fatalf("empirical CDF(1) = %v, want 0.5", e.CDF(1))
	}
	if math.Abs(e.CDF(0.5)-0.25) > 1e-12 {
		t.Fatalf("empirical CDF(0.5) = %v, want 0.25", e.CDF(0.5))
	}
	xs, ps := e.Support()
	if len(xs) != 3 || len(ps) != 3 {
		t.Fatal("support length wrong")
	}
	sum := ps[0] + ps[1] + ps[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

// Property: for every law, samples are non-negative.
func TestSamplesNonNegativeProperty(t *testing.T) {
	laws := allLaws()
	f := func(seed uint64, pick uint8) bool {
		d := laws[int(pick)%len(laws)]
		r := rngutil.New(seed)
		for i := 0; i < 20; i++ {
			if d.Sample(r) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF evaluated at a sample is in [0,1] and the empirical check
// P(X <= median draws) is consistent with CDF at that point.
func TestCDFAtSamplesProperty(t *testing.T) {
	laws := allLaws()
	f := func(seed uint64, pick uint8) bool {
		d := laws[int(pick)%len(laws)]
		r := rngutil.New(seed)
		for i := 0; i < 20; i++ {
			c := d.CDF(d.Sample(r))
			if c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewDeterministic(-1) },
		func() { NewExponential(0) },
		func() { NewErlang(0, 1) },
		func() { NewErlang(2, 0) },
		func() { NewGeometricLattice(-1, 1) },
		func() { NewGeometricLattice(1, 0) },
		func() { NewShifted(NewExponential(1), -1) },
	}
	for i, fn := range cases {
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
