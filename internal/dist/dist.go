// Package dist provides the probability distributions used throughout the
// window-protocol models: as arrival processes, as message-length and
// service-time laws for the analytic queueing models, and as variate
// generators for the simulator.
//
// A Distribution exposes exactly what the analyses in the paper consume:
// the mean (for ρ and the residual-service law), the CDF (for the
// unfinished work recursion of §4.1 and the Beneš series of the FCFS
// baseline), the Laplace–Stieltjes transform at complex arguments (for the
// busy-period transform and the Euler inversion of the LCFS baseline), and
// sampling (for simulation).  All distributions here are non-negative, as
// befits times.
package dist

import (
	"fmt"
	"math"
	"math/cmplx"

	"windowctl/internal/rngutil"
)

// Distribution is a non-negative probability law.
type Distribution interface {
	// Mean returns the first moment E[X].
	Mean() float64
	// CDF returns P(X <= x).  CDF(x) = 0 for x < 0.
	CDF(x float64) float64
	// LST returns the Laplace–Stieltjes transform E[e^(−sX)] at a complex
	// argument with Re(s) >= 0.  The LCFS baseline evaluates it along the
	// Bromwich contour of its Euler inversion.
	LST(s complex128) complex128
	// Sample draws one variate using the given stream.
	Sample(r *rngutil.Stream) float64
	// String describes the law and its parameters.
	String() string
}

// ---------------------------------------------------------------------------
// Deterministic
// ---------------------------------------------------------------------------

// Deterministic is the law of a constant: P(X = Value) = 1.  The paper's
// evaluation uses fixed message lengths (M·τ), which this models.
type Deterministic struct{ Value float64 }

// NewDeterministic returns the constant law at v; it panics if v < 0.
func NewDeterministic(v float64) Deterministic {
	if v < 0 {
		panic("dist: negative deterministic value")
	}
	return Deterministic{Value: v}
}

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.Value }

// CDF implements Distribution.
func (d Deterministic) CDF(x float64) float64 {
	if x >= d.Value {
		return 1
	}
	return 0
}

// LST implements Distribution.
func (d Deterministic) LST(s complex128) complex128 { return cmplx.Exp(-s * complex(d.Value, 0)) }

// Sample implements Distribution.
func (d Deterministic) Sample(*rngutil.Stream) float64 { return d.Value }

// String implements Distribution.
func (d Deterministic) String() string { return fmt.Sprintf("Deterministic(%g)", d.Value) }

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

// Exponential is the exponential law with the given Rate (mean 1/Rate).
type Exponential struct{ Rate float64 }

// NewExponential returns an exponential law; it panics if rate <= 0.
func NewExponential(rate float64) Exponential {
	if rate <= 0 {
		panic("dist: non-positive exponential rate")
	}
	return Exponential{Rate: rate}
}

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// CDF implements Distribution.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

// LST implements Distribution.
func (e Exponential) LST(s complex128) complex128 {
	return complex(e.Rate, 0) / (complex(e.Rate, 0) + s)
}

// Sample implements Distribution.
func (e Exponential) Sample(r *rngutil.Stream) float64 { return r.Exp(e.Rate) }

// String implements Distribution.
func (e Exponential) String() string { return fmt.Sprintf("Exponential(rate=%g)", e.Rate) }

// ---------------------------------------------------------------------------
// Erlang
// ---------------------------------------------------------------------------

// Erlang is the Erlang-k law: the sum of K independent exponentials of the
// given Rate.  It interpolates between exponential (K=1) and deterministic
// (K→∞) service variability, which makes it useful for sensitivity studies
// of the M/G/1 model.
type Erlang struct {
	K    int
	Rate float64
}

// NewErlang returns an Erlang law; it panics unless k >= 1 and rate > 0.
func NewErlang(k int, rate float64) Erlang {
	if k < 1 || rate <= 0 {
		panic("dist: invalid Erlang parameters")
	}
	return Erlang{K: k, Rate: rate}
}

// Mean implements Distribution.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }

// CDF implements Distribution.  Uses the closed-form lower regularized
// gamma function for integer shape: 1 − e^{−λx} Σ_{n<K} (λx)ⁿ/n!.
func (e Erlang) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	lx := e.Rate * x
	sum := 0.0
	term := 1.0
	for n := 0; n < e.K; n++ {
		if n > 0 {
			term *= lx / float64(n)
		}
		sum += term
	}
	return 1 - math.Exp(-lx)*sum
}

// LST implements Distribution.
func (e Erlang) LST(s complex128) complex128 {
	base := complex(e.Rate, 0) / (complex(e.Rate, 0) + s)
	return cmplx.Pow(base, complex(float64(e.K), 0))
}

// Sample implements Distribution.
func (e Erlang) Sample(r *rngutil.Stream) float64 {
	sum := 0.0
	for i := 0; i < e.K; i++ {
		sum += r.Exp(e.Rate)
	}
	return sum
}

// String implements Distribution.
func (e Erlang) String() string { return fmt.Sprintf("Erlang(k=%d,rate=%g)", e.K, e.Rate) }

// ---------------------------------------------------------------------------
// Geometric-on-a-lattice
// ---------------------------------------------------------------------------

// GeometricLattice is a geometric law on the lattice {0, Step, 2·Step, ...}:
// P(X = n·Step) = (1−q)·qⁿ, with mean Step·q/(1−q).
//
// This is exactly the service-time model [Kurose 83] uses for the
// *scheduling* component of a message's service time: a geometrically
// distributed number of wasted windowing slots, each of duration τ (the
// Step).  The controlled-protocol analysis of §4 inherits it.
type GeometricLattice struct {
	Q    float64 // success-run parameter in [0, 1)
	Step float64 // lattice spacing (> 0)
}

// NewGeometricLattice returns the geometric lattice law with the given mean
// number of steps and step size.  meanSteps = q/(1−q), so q =
// meanSteps/(1+meanSteps).  It panics if meanSteps < 0 or step <= 0.
func NewGeometricLattice(meanSteps, step float64) GeometricLattice {
	if meanSteps < 0 || step <= 0 {
		panic("dist: invalid geometric lattice parameters")
	}
	return GeometricLattice{Q: meanSteps / (1 + meanSteps), Step: step}
}

// Mean implements Distribution.
func (g GeometricLattice) Mean() float64 { return g.Step * g.Q / (1 - g.Q) }

// CDF implements Distribution.
func (g GeometricLattice) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	n := math.Floor(x / g.Step)
	// P(N <= n) = 1 − q^{n+1}.
	return 1 - math.Pow(g.Q, n+1)
}

// LST implements Distribution.
func (g GeometricLattice) LST(s complex128) complex128 {
	// E[e^{−sN·Step}] = (1−q) / (1 − q e^{−s·Step}).
	return complex(1-g.Q, 0) / (1 - complex(g.Q, 0)*cmplx.Exp(-s*complex(g.Step, 0)))
}

// Sample implements Distribution.
func (g GeometricLattice) Sample(r *rngutil.Stream) float64 {
	if g.Q == 0 {
		return 0
	}
	return g.Step * float64(r.Geometric(1-g.Q))
}

// String implements Distribution.
func (g GeometricLattice) String() string {
	return fmt.Sprintf("GeometricLattice(q=%g,step=%g)", g.Q, g.Step)
}

// ---------------------------------------------------------------------------
// Shifted distribution (X + c)
// ---------------------------------------------------------------------------

// Shifted is the law of Base + Offset, Offset >= 0.  The paper's message
// service time is exactly such a sum: a geometric scheduling time plus a
// constant transmission time M·τ.
type Shifted struct {
	Base   Distribution
	Offset float64
}

// NewShifted returns the law of base + offset; it panics if offset < 0.
func NewShifted(base Distribution, offset float64) Shifted {
	if offset < 0 {
		panic("dist: negative shift offset")
	}
	return Shifted{Base: base, Offset: offset}
}

// Mean implements Distribution.
func (s Shifted) Mean() float64 { return s.Base.Mean() + s.Offset }

// CDF implements Distribution.
func (s Shifted) CDF(x float64) float64 { return s.Base.CDF(x - s.Offset) }

// LST implements Distribution.
func (s Shifted) LST(u complex128) complex128 {
	return cmplx.Exp(-u*complex(s.Offset, 0)) * s.Base.LST(u)
}

// Sample implements Distribution.
func (s Shifted) Sample(r *rngutil.Stream) float64 { return s.Base.Sample(r) + s.Offset }

// String implements Distribution.
func (s Shifted) String() string { return fmt.Sprintf("%v + %g", s.Base, s.Offset) }

// ---------------------------------------------------------------------------
// Empirical (tabulated) distribution
// ---------------------------------------------------------------------------

// Empirical is a discrete law over tabulated support points, used to carry
// exact windowing-time distributions computed by internal/sched into the
// queueing model.
type Empirical struct {
	xs []float64 // ascending support
	ps []float64 // probabilities, sum 1
	cs []float64 // cumulative
}

// NewEmpirical builds a discrete law from support points and weights.  The
// weights are normalized; points must be non-negative and ascending.
func NewEmpirical(xs, ws []float64) (*Empirical, error) {
	if len(xs) == 0 || len(xs) != len(ws) {
		return nil, fmt.Errorf("dist: empirical needs equal, non-empty xs/ws (got %d/%d)", len(xs), len(ws))
	}
	total := 0.0
	for i, w := range ws {
		if w < 0 {
			return nil, fmt.Errorf("dist: negative weight at %d", i)
		}
		if xs[i] < 0 {
			return nil, fmt.Errorf("dist: negative support point at %d", i)
		}
		if i > 0 && xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("dist: support not strictly ascending at %d", i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: weights sum to zero")
	}
	e := &Empirical{
		xs: append([]float64(nil), xs...),
		ps: make([]float64, len(ws)),
		cs: make([]float64, len(ws)),
	}
	run := 0.0
	for i, w := range ws {
		e.ps[i] = w / total
		run += e.ps[i]
		e.cs[i] = run
	}
	e.cs[len(e.cs)-1] = 1 // defend against rounding
	return e, nil
}

// Mean implements Distribution.
func (e *Empirical) Mean() float64 {
	sum := 0.0
	for i, x := range e.xs {
		sum += x * e.ps[i]
	}
	return sum
}

// CDF implements Distribution.
func (e *Empirical) CDF(x float64) float64 {
	if x < e.xs[0] {
		return 0
	}
	// Binary search for the last support point <= x.
	lo, hi := 0, len(e.xs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if e.xs[mid] <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return e.cs[lo]
}

// LST implements Distribution.
func (e *Empirical) LST(s complex128) complex128 {
	sum := complex(0, 0)
	for i, x := range e.xs {
		sum += complex(e.ps[i], 0) * cmplx.Exp(-s*complex(x, 0))
	}
	return sum
}

// Sample implements Distribution.
func (e *Empirical) Sample(r *rngutil.Stream) float64 {
	u := r.Float64()
	lo, hi := 0, len(e.cs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.cs[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return e.xs[lo]
}

// String implements Distribution.
func (e *Empirical) String() string {
	return fmt.Sprintf("Empirical(%d points, mean=%.4g)", len(e.xs), e.Mean())
}

// Support returns copies of the support points and their probabilities.
func (e *Empirical) Support() (xs, ps []float64) {
	return append([]float64(nil), e.xs...), append([]float64(nil), e.ps...)
}
