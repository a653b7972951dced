package numerics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// FFT computes the in-place radix-2 Cooley–Tukey discrete Fourier
// transform of a, whose length must be a power of two.  When inverse is
// true the inverse transform (including the 1/n scaling) is computed.
func FFT(a []complex128, inverse bool) {
	n := len(a)
	if n == 0 || n&(n-1) != 0 {
		panic("numerics: FFT length must be a positive power of two")
	}
	// Bit-reversal permutation.
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> shift)
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		if !inverse {
			ang = -ang
		}
		wBase := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wBase
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range a {
			a[i] *= inv
		}
	}
}

// convolveFFTCalls counts every FFT-based density convolution performed
// (Convolver.ConvolveInto).  The batched multi-K
// solvers in internal/queueing exist to shrink this number; tests and
// benchmarks read it through ConvolveFFTCount to assert the reduction.
var convolveFFTCalls atomic.Uint64

// ConvolveFFTCount returns the number of FFT convolutions performed by the
// process so far.  Subtract two readings to count the convolutions of a
// region of interest (meaningful only when no concurrent convolutions run).
func ConvolveFFTCount() uint64 { return convolveFFTCalls.Load() }

// fftSize returns the power-of-two transform length covering a linear
// convolution of the given output length.
func fftSize(outLen int) int {
	n := 1
	for n < outLen {
		n <<= 1
	}
	return n
}

// fillPadded copies x into the head of buf and zeroes the rest.
func fillPadded(buf []complex128, x []float64) {
	for i := range buf {
		if i < len(x) {
			buf[i] = complex(x[i], 0)
		} else {
			buf[i] = 0
		}
	}
}

// Convolver repeatedly convolves grids against one fixed kernel.  It is
// the "FFT plan" of the eq 4.7 series loops: the kernel's transform is
// computed once at construction and every ConvolveInto call then costs a
// single forward and inverse transform with zero heap allocations.  The
// result is the trapezoid-weighted density convolution
// (g*k)(x) = ∫₀ˣ g(x−u)k(u) du tabulated on the kernel's support.
//
// A Convolver is not safe for concurrent use; give each goroutine its own.
type Convolver struct {
	kernel *Grid
	fk     []complex128 // cached FFT of the zero-padded kernel
	buf    []complex128 // scratch for the varying operand
}

// NewConvolver builds a convolution plan for the given kernel grid.
func NewConvolver(kernel *Grid) *Convolver {
	l := len(kernel.Y)
	n := fftSize(2*l - 1)
	fk := make([]complex128, n)
	fillPadded(fk, kernel.Y)
	FFT(fk, false)
	return &Convolver{kernel: kernel, fk: fk, buf: make([]complex128, n)}
}

// ConvolveInto writes g convolved with the plan's kernel into dst and
// returns dst.  dst may alias g (in-place update of a running convolution
// power) but must not alias the kernel.  All three grids must share the
// kernel's shape.
func (c *Convolver) ConvolveInto(dst, g *Grid) *Grid {
	k := c.kernel
	if g.Step != k.Step || len(g.Y) != len(k.Y) || dst.Step != k.Step || len(dst.Y) != len(k.Y) {
		panic("numerics: Convolver requires equal-shape grids")
	}
	convolveFFTCalls.Add(1)
	fillPadded(c.buf, g.Y)
	FFT(c.buf, false)
	for i := range c.buf {
		c.buf[i] *= c.fk[i]
	}
	FFT(c.buf, true)
	n := len(g.Y)
	g0, k0 := g.Y[0], k.Y[0]
	for i := 1; i < n; i++ {
		// Trapezoid endpoint correction: the rectangle sum counts the
		// j = 0 and j = i endpoints with weight 1; trapezoid wants ½.
		// g.Y[i] is read before dst.Y[i] is written, which keeps dst==g
		// aliasing safe.
		v := real(c.buf[i]) - 0.5*g.Y[i]*k0 - 0.5*g0*k.Y[i]
		dst.Y[i] = v * g.Step
	}
	dst.Y[0] = 0
	return dst
}
