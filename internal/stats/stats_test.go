package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"windowctl/internal/rngutil"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatal("N wrong")
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("mean %v, want 5", a.Mean())
	}
	// Population variance is 4; sample variance = 4*8/7.
	want := 4.0 * 8 / 7
	if math.Abs(a.Variance()-want) > 1e-12 {
		t.Fatalf("variance %v, want %v", a.Variance(), want)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestProportion(t *testing.T) {
	p := Proportion{Successes: 250, Trials: 1000}
	if math.Abs(p.Estimate()-0.25) > 1e-12 {
		t.Fatalf("estimate %v", p.Estimate())
	}
	lo, hi := p.ConfidenceInterval(0.95)
	if lo >= 0.25 || hi <= 0.25 {
		t.Fatalf("CI [%v, %v] does not cover estimate", lo, hi)
	}
	if hi-lo > 0.06 {
		t.Fatalf("CI too wide: [%v, %v]", lo, hi)
	}
}

func TestProportionEdgeCases(t *testing.T) {
	var p Proportion
	if p.Estimate() != 0 {
		t.Fatal("empty proportion estimate")
	}
	lo, hi := p.ConfidenceInterval(0.95)
	if lo != 0 || hi != 0 {
		t.Fatal("empty proportion CI")
	}
	// All failures: Wilson CI must stay within [0, 1].
	p.Trials = 50
	lo, hi = p.ConfidenceInterval(0.99)
	if lo < 0 || hi > 1 || lo > hi {
		t.Fatalf("degenerate CI [%v, %v]", lo, hi)
	}
}

func TestHistogramCDFAndTail(t *testing.T) {
	h := NewHistogram(0.1, 100) // covers [0, 10)
	r := rngutil.New(7)
	const n = 200000
	for i := 0; i < n; i++ {
		h.Add(r.Exp(1))
	}
	for _, x := range []float64{0.5, 1, 2, 3} {
		want := 1 - math.Exp(-x)
		if math.Abs(h.CDF(x)-want) > 0.01 {
			t.Fatalf("CDF(%v) = %v, want %v", x, h.CDF(x), want)
		}
	}
	if math.Abs(h.Mean()-1) > 0.01 {
		t.Fatalf("histogram mean %v", h.Mean())
	}
	if h.N() != n {
		t.Fatal("N wrong")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0.01, 200)
	r := rngutil.New(8)
	for i := 0; i < 100000; i++ {
		h.Add(r.Float64()) // uniform [0,1)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if math.Abs(h.Quantile(q)-q) > 0.01 {
			t.Fatalf("quantile(%v) = %v", q, h.Quantile(q))
		}
	}
	if h.Quantile(0) != 0 {
		t.Fatal("quantile(0)")
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(100)
	h.Add(0.5)
	if h.CDF(50) != 0.5 {
		t.Fatalf("overflow handling: CDF(50)=%v", h.CDF(50))
	}
	if h.CDF(1000) != 0.5 {
		// Overflowed mass can never be claimed as <= x.
		t.Fatalf("overflow CDF: %v", h.CDF(1000))
	}
	if !math.IsInf(h.Quantile(0.9), 1) {
		t.Fatal("quantile beyond non-overflow mass should be +Inf")
	}
}

// CopyFrom overwrites every bin: copying a histogram that used bins
// [0, 5) over one that used [0, 9) must clear bins 5..8 as well; left
// standing, they would shift every quantile.
func TestHistogramCopyFrom(t *testing.T) {
	short, long := NewHistogram(1, 16), NewHistogram(1, 16)
	for _, x := range []float64{0.5, 1.5, 4.5, 30} {
		short.Add(x)
	}
	for _, x := range []float64{2.5, 8.5, 8.7} {
		long.Add(x)
	}
	long.CopyFrom(short)
	if !reflect.DeepEqual(long, short) {
		t.Fatalf("copy differs from its source:\n got %+v\nwant %+v", long, short)
	}
	if q, want := long.Quantile(0.75), short.Quantile(0.75); q != want {
		t.Errorf("copy's 0.75-quantile %v, source's %v", q, want)
	}
	if c := short.Clone(); c == short || !reflect.DeepEqual(c, short) {
		t.Errorf("Clone = %+v, want an equal histogram in fresh storage", c)
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative observation accepted")
		}
	}()
	NewHistogram(1, 10).Add(-0.1)
}

func TestMeanCI(t *testing.T) {
	samples := []float64{9.8, 10.2, 10.1, 9.9, 10.0, 10.0, 9.95, 10.05}
	mean, hw, err := MeanCI(samples, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-10) > 0.01 {
		t.Fatalf("mean %v", mean)
	}
	if hw <= 0 || hw > 0.2 {
		t.Fatalf("half width %v", hw)
	}
	if _, _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Fatal("single sample CI accepted")
	}
}

func TestMeanCICoverage(t *testing.T) {
	// Empirically verify ~95% coverage of a known mean.
	r := rngutil.New(9)
	const trials = 400
	covered := 0
	for tr := 0; tr < trials; tr++ {
		samples := make([]float64, 20)
		for i := range samples {
			samples[i] = r.Normal() + 5
		}
		mean, hw, err := MeanCI(samples, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if mean-hw <= 5 && 5 <= mean+hw {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 || rate > 0.99 {
		t.Fatalf("CI coverage %v, want ~0.95", rate)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.975:  1.959963985,
		0.025:  -1.959963985,
		0.8413: 0.99982, // ~Φ(1)
		0.999:  3.090232306,
	}
	for p, want := range cases {
		if got := NormalQuantile(p); math.Abs(got-want) > 1e-3 {
			t.Fatalf("NormalQuantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	// Φ(Φ⁻¹(p)) = p via erf from stdlib math.
	for p := 0.01; p < 1; p += 0.01 {
		z := NormalQuantile(p)
		phi := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		if math.Abs(phi-p) > 1e-6 {
			t.Fatalf("round trip at %v: %v", p, phi)
		}
	}
}

func TestStudentTQuantile(t *testing.T) {
	// Reference values (two-sided 95% → p = 0.975).
	cases := []struct {
		df   int
		want float64
	}{
		{5, 2.5706}, {10, 2.2281}, {30, 2.0423}, {100, 1.9840},
	}
	for _, c := range cases {
		got := StudentTQuantile(0.975, c.df)
		if math.Abs(got-c.want) > 0.02 {
			t.Fatalf("t(0.975, %d) = %v, want %v", c.df, got, c.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NormalQuantile(0) },
		func() { NormalQuantile(1) },
		func() { StudentTQuantile(0.9, 0) },
		func() { NewHistogram(0, 5) },
		func() { NewHistogram(1, 0) },
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

// Property: accumulator mean always lies within [min, max].
func TestAccumulatorBoundsProperty(t *testing.T) {
	f := func(seed uint64, count uint8) bool {
		n := int(count%50) + 1
		r := rngutil.New(seed)
		var a Accumulator
		for i := 0; i < n; i++ {
			a.Add(r.Normal() * 100)
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram CDF is monotone.
func TestHistogramMonotoneProperty(t *testing.T) {
	r := rngutil.New(11)
	h := NewHistogram(0.05, 100)
	for i := 0; i < 5000; i++ {
		h.Add(r.Exp(0.7))
	}
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 6)
		y := x + math.Mod(math.Abs(b), 6)
		return h.CDF(x) <= h.CDF(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
