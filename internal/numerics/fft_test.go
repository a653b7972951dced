package numerics

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"windowctl/internal/rngutil"
)

func TestFFTRoundTrip(t *testing.T) {
	r := rngutil.New(31)
	a := make([]complex128, 64)
	orig := make([]complex128, 64)
	for i := range a {
		a[i] = complex(r.Normal(), r.Normal())
		orig[i] = a[i]
	}
	FFT(a, false)
	FFT(a, true)
	for i := range a {
		if cmplx.Abs(a[i]-orig[i]) > 1e-10 {
			t.Fatalf("round trip failed at %d: %v vs %v", i, a[i], orig[i])
		}
	}
}

func TestFFTKnownTransform(t *testing.T) {
	// Unit impulse transforms to all-ones.
	a := make([]complex128, 8)
	a[0] = 1
	FFT(a, false)
	for i, v := range a {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse transform wrong at %d: %v", i, v)
		}
	}
	// Constant transforms to an impulse of height n.
	b := make([]complex128, 8)
	for i := range b {
		b[i] = 1
	}
	FFT(b, false)
	if cmplx.Abs(b[0]-8) > 1e-12 {
		t.Fatalf("DC bin %v", b[0])
	}
	for i := 1; i < 8; i++ {
		if cmplx.Abs(b[i]) > 1e-12 {
			t.Fatalf("non-DC bin %d = %v", i, b[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	r := rngutil.New(32)
	a := make([]complex128, 128)
	sumT := 0.0
	for i := range a {
		a[i] = complex(r.Normal(), 0)
		sumT += real(a[i]) * real(a[i])
	}
	FFT(a, false)
	sumF := 0.0
	for _, v := range a {
		sumF += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(sumF/float64(len(a))-sumT) > 1e-8 {
		t.Fatalf("Parseval violated: %v vs %v", sumF/128, sumT)
	}
}

func TestFFTPanicsOnBadLength(t *testing.T) {
	for _, n := range []int{0, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("length %d accepted", n)
				}
			}()
			FFT(make([]complex128, n), false)
		}()
	}
}

// linearConvolve returns the linear convolution of x and y (length
// len(x)+len(y)−1) via FFT: two forward transforms, a pointwise product
// and an inverse.  It checks FFT against a convolution known by hand.
func linearConvolve(x, y []float64) []float64 {
	outLen := len(x) + len(y) - 1
	n := fftSize(outLen)
	fx := make([]complex128, n)
	fy := make([]complex128, n)
	fillPadded(fx, x)
	fillPadded(fy, y)
	FFT(fx, false)
	FFT(fy, false)
	for i := range fx {
		fx[i] *= fy[i]
	}
	FFT(fx, true)
	out := make([]float64, outLen)
	for i := range out {
		out[i] = real(fx[i])
	}
	return out
}

// convolveDirect is the O(n²) trapezoid-weighted density convolution
// (f*h)(x) = ∫₀ˣ f(x−u)·h(u) du on f's support: the reference the
// Convolver's FFT plan must reproduce to rounding error.
func convolveDirect(f, h *Grid) *Grid {
	n := len(f.Y)
	out := NewGrid(f.Step, n)
	for i := 1; i < n; i++ {
		limit := min(i, len(h.Y)-1)
		sum := 0.0
		for j := 0; j <= limit; j++ {
			w := 1.0
			if j == 0 || j == limit {
				w = 0.5
			}
			sum += w * f.Y[i-j] * h.Y[j]
		}
		out.Y[i] = sum * f.Step
	}
	return out
}

// convolve runs one out-of-place Convolver application.
func convolve(kernel, g *Grid) *Grid {
	return NewConvolver(kernel).ConvolveInto(NewGrid(g.Step, len(g.Y)), g)
}

func TestLinearConvolveSmall(t *testing.T) {
	got := linearConvolve([]float64{1, 2, 3}, []float64{4, 5})
	want := []float64{4, 13, 22, 15}
	if len(got) != len(want) {
		t.Fatalf("length %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("conv[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConvolveFFTMatchesDirect(t *testing.T) {
	step, n := 0.01, 700
	f := Tabulate(func(x float64) float64 { return math.Exp(-x) }, step, n)
	h := Tabulate(func(x float64) float64 { return 2 * math.Exp(-2*x) }, step, n)
	direct := convolveDirect(f, h)
	fast := convolve(h, f)
	for i := 0; i < n; i++ {
		if math.Abs(direct.Y[i]-fast.Y[i]) > 1e-9 {
			t.Fatalf("mismatch at %d: direct %v, fft %v", i, direct.Y[i], fast.Y[i])
		}
	}
}

// Property: the Convolver equals direct convolution on random densities.
func TestConvolveFFTEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rngutil.New(seed)
		n := 128 + int(seed%100)
		a := NewGrid(0.05, n)
		b := NewGrid(0.05, n)
		for i := 0; i < n; i++ {
			a.Y[i] = r.Float64()
			b.Y[i] = r.Float64()
		}
		d := convolveDirect(a, b)
		q := convolve(b, a)
		for i := 0; i < n; i++ {
			if math.Abs(d.Y[i]-q.Y[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGridConvolveExponentials(t *testing.T) {
	// Exp(1) density convolved with itself = Erlang-2 density x·e^{−x}.
	step, n := 0.005, 2001
	f := Tabulate(func(x float64) float64 { return math.Exp(-x) }, step, n)
	c := convolve(f, f)
	for _, x := range []float64{0.5, 1, 2, 4} {
		almost(t, c.Y[int(math.Round(x/step))], x*math.Exp(-x), 2e-3, "Erlang-2 density")
	}
}

func TestGridConvolveMassConservation(t *testing.T) {
	// Convolution of two densities, truncated at T: mass over [0,T] must
	// not exceed 1 and should approach the true convolution mass.
	step, n := 0.01, 1200
	f := Tabulate(func(x float64) float64 { return 2 * math.Exp(-2*x) }, step, n)
	m := convolve(f, f).IntegralTo(float64(n-1) * step)
	if m > 1.0001 {
		t.Fatalf("convolved mass %v exceeds 1", m)
	}
	if m < 0.99 {
		t.Fatalf("convolved mass %v too small (support truncation too harsh)", m)
	}
}

// The Convolver plan must reproduce the two-transform FFT convolution
// exactly: it caches the kernel transform but performs the same
// arithmetic, also when its scratch is reused.
func TestConvolverMatchesConvolveFFT(t *testing.T) {
	step, n := 0.01, 700
	f := Tabulate(func(x float64) float64 { return math.Exp(-x) }, step, n)
	h := Tabulate(func(x float64) float64 { return 2 * math.Exp(-2*x) }, step, n)
	fresh := func(g *Grid) *Grid {
		plain := linearConvolve(g.Y, h.Y)
		out := NewGrid(step, n)
		for i := 1; i < n; i++ {
			out.Y[i] = (plain[i] - 0.5*g.Y[i]*h.Y[0] - 0.5*g.Y[0]*h.Y[i]) * step
		}
		return out
	}
	cv := NewConvolver(h)
	got, want := f, f
	for iter := 0; iter < 2; iter++ {
		want = fresh(want)
		got = cv.ConvolveInto(NewGrid(step, n), got)
		for i := 0; i < n; i++ {
			if got.Y[i] != want.Y[i] {
				t.Fatalf("application %d: plan result differs at %d: %v vs %v", iter+1, i, got.Y[i], want.Y[i])
			}
		}
	}
}

// In-place aliasing (dst == g) is the zero-allocation mode used by the
// series loops; it must agree with the out-of-place result.
func TestConvolverInPlaceAliasing(t *testing.T) {
	step, n := 0.02, 300
	h := Tabulate(func(x float64) float64 { return math.Exp(-x / 2) }, step, n)
	cv := NewConvolver(h)
	conv := h.Clone()
	want := h.Clone()
	for iter := 0; iter < 5; iter++ {
		want = cv.ConvolveInto(NewGrid(step, n), want)
		cv.ConvolveInto(conv, conv)
		for i := 0; i < n; i++ {
			if conv.Y[i] != want.Y[i] {
				t.Fatalf("iteration %d: aliased result differs at %d: %v vs %v",
					iter, i, conv.Y[i], want.Y[i])
			}
		}
	}
}

func TestConvolveFFTPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	convolve(NewGrid(1, 8), NewGrid(1, 9))
}

func TestConvolverPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("destination shape mismatch accepted")
		}
	}()
	g := NewGrid(1, 8)
	NewConvolver(g).ConvolveInto(NewGrid(1, 9), g)
}

func TestConvolveFFTCountAdvances(t *testing.T) {
	h := Tabulate(func(x float64) float64 { return math.Exp(-x) }, 0.1, 64)
	before := ConvolveFFTCount()
	convolve(h, h)
	if got := ConvolveFFTCount() - before; got < 1 {
		t.Fatalf("counter advanced by %d, want >= 1", got)
	}
}

// BenchmarkConvolverInPlace measures the planned, buffer-reusing path the
// eq 4.7 series loops run per term.
func BenchmarkConvolverInPlace(b *testing.B) {
	f := Tabulate(func(x float64) float64 { return math.Exp(-x) }, 0.01, 4096)
	cv := NewConvolver(f)
	conv := f.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv.ConvolveInto(conv, conv)
	}
}
