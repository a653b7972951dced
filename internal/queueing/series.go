package queueing

import (
	"fmt"
	"math"

	"windowctl/internal/dist"
	"windowctl/internal/numerics"
)

// This file holds the convolution-series engine behind every series
// solve of the package.  Both analytic waiting-time laws of the harness
// are truncated power series over i-fold self-convolutions of the
// residual service density β:
//
//	eq 4.7 (controlled):  z(K,ρ)   = Σ ρ^i ∫₀ᴷ β⁽ⁱ⁾       (masses clamped)
//	Beneš  (FCFS):        P(W≤K)/(1−ρ) = Σ ρ^i ∫₀ᴷ β⁽ⁱ⁾
//
// The β⁽ⁱ⁾ are by far the dominant cost (one FFT convolution per term), and
// they do not depend on K at all — only the prefix integrals do.  The
// engine therefore runs the convolution series once per (service law, grid)
// pair and lets any number of "requests" — different constraints K, and
// even different series flavours — accumulate their prefix sums from the
// same β⁽ⁱ⁾ stream.  ProtocolModel.LossGrids runs one series per such
// bucket; the per-K solvers run a bucket of one request.

const (
	// gridDivisions sets the quadrature spacing min(K, E[X])/gridDivisions
	// of a constraint K under a service law of mean E[X].
	gridDivisions = 512
	// maxGridPoints bounds the quadrature grid over [0, K]: far above what
	// any figure or service constraint needs (K = 5000 at M = 25 takes
	// about 10⁵ points), so that only a malformed constraint — NaN,
	// infinite or absurdly large — reaches it and fails with an error
	// instead of an unbounded allocation.
	maxGridPoints = 1 << 24
	// maxSeriesTerms bounds every convolution series.
	maxSeriesTerms = 4096
)

// gridStep returns the quadrature spacing for constraint k under a service
// law of mean xbar.  A NaN or infinite k, or one whose grid over [0, k]
// would pass maxGridPoints, is an error.
func gridStep(k, xbar float64) (float64, error) {
	step := math.Min(k, xbar) / gridDivisions
	if n := k/step + 2; !(n <= maxGridPoints) {
		return 0, gridError(k, n)
	}
	return step, nil
}

func gridError(k, points float64) error {
	return fmt.Errorf("queueing: constraint K=%v needs a quadrature grid of %.4g points (the bound is %d)",
		k, points, maxGridPoints)
}

// residualDensity tabulates the residual-service density
// β(w) = (1 − B(w))/E[X] of svc on [0, k] at spacing step.
func residualDensity(svc dist.Distribution, k, step float64) *numerics.Grid {
	xbar := svc.Mean()
	return numerics.Tabulate(func(w float64) float64 {
		return (1 - svc.CDF(w)) / xbar
	}, step, int(k/step)+2)
}

// seriesReq is one consumer of a shared ρ^i·β⁽ⁱ⁾ convolution series: a
// prefix-integration point K with the stopping rule of the series it
// belongs to.  Stopping is evaluated per request, so a request's result
// does not depend on which other requests share its series.
type seriesReq struct {
	// k is the prefix-integration point ∫₀ᵏ β⁽ⁱ⁾.
	k float64
	// controlled marks the eq 4.7 z-series; otherwise the request is the
	// Beneš series.  The z-series clamps its masses to be non-increasing
	// (guarding against trapezoid overshoot on lattice service laws),
	// stops at a term below 1e-10 and, since its queue is stable beyond
	// ρ = 1, guards that stop (see runSeries).  The Beneš series is only
	// ever run with ρ < 1 and stops at a term below 1e-12.
	controlled bool

	// sum accumulates 1 + Σ ρ^i·mass_i; terms counts the summed terms
	// including the i = 0 atom.
	sum      float64
	prevMass float64
	terms    int
	done     bool
}

// result is the eq 4.7 Result of a finished z-series request at load rho.
func (r *seriesReq) result(rho float64) Result {
	z := r.sum
	// p(loss) = 1 − z/(1+ρz); equivalently the paper's 1 − ρ⁻¹ + 1/(ρ+ρ²z).
	// ρ·p(accept) = 1 − P(0) and p(accept) = P(0)·z give P(0) = 1/(1+ρz).
	loss := math.Min(math.Max(1-z/(1+rho*z), 0), 1)
	return Result{Loss: loss, ServerIdle: 1 / (1 + rho*z), Rho: rho, Z: z, Terms: r.terms}
}

// fcfsLoss is P(W > K) of a finished Beneš request at load rho.
func (r *seriesReq) fcfsLoss(rho float64) float64 {
	return 1 - math.Min((1-rho)*r.sum, 1)
}

// runSeries tabulates the residual density of svc at spacing step up to
// the largest K of reqs and advances one convolution series, convolving β
// with itself once per term through a cached FFT plan, until every
// request has frozen.  rho is the load λ·E[X].  It errors if a request is
// still accumulating after maxSeriesTerms terms, naming the series of the
// bucket's first request.
func runSeries(rho float64, svc dist.Distribution, step float64, reqs []*seriesReq) error {
	kMax := 0.0
	for _, r := range reqs {
		kMax = math.Max(kMax, r.k)
		r.sum = 1 // i = 0 term: unit atom at 0
		r.prevMass = 1
		r.terms = 1
	}
	beta := residualDensity(svc, kMax, step)
	remaining := len(reqs)
	conv := beta.Clone()
	plan := numerics.NewConvolver(beta)
	pow := rho
	for i := 1; ; i++ {
		for _, r := range reqs {
			if r.done {
				continue
			}
			mass := conv.IntegralTo(r.k)
			// Trapezoid quadrature over service laws with atoms (the
			// geometric-lattice scheduling component) can overshoot the
			// true mass by O(step); the true masses are provably
			// non-increasing, so clamp rather than propagate the wiggle.
			if r.controlled && mass > r.prevMass {
				mass = r.prevMass
			}
			r.prevMass = mass
			term := pow * mass
			r.sum += term
			r.terms = i + 1
			// Tail bound: a_{i+j} <= a_i · a₁^j is valid but a₁ can
			// exceed 1/ρ early on; stop when the current term is tiny
			// and (for the z-series) provably decaying.  Past
			// saturation, the loss 1 − z/(1+ρz) falls toward its floor
			// 1 − 1/ρ as z grows, and the partial sum's loss lies
			// exactly 1/(ρ(1+ρz)) above that floor.  The true z is at
			// least the partial sum, so once that gap is below tol the
			// true loss is pinned between the floor and the partial
			// loss, however far the terms have yet to run.
			if r.controlled {
				const tol = 1e-10
				r.done = term < tol && (rho < 1 || mass < 1/(2*rho)) ||
					rho > 1 && 1/(rho*(1+rho*r.sum)) < tol
			} else {
				r.done = term < 1e-12
			}
			if r.done {
				remaining--
			}
		}
		if remaining == 0 {
			return nil
		}
		if i == maxSeriesTerms {
			name := "Beneš"
			if reqs[0].controlled {
				name = "convolution"
			}
			return fmt.Errorf("queueing: %s series did not converge in %d terms", name, maxSeriesTerms)
		}
		plan.ConvolveInto(conv, conv)
		pow *= rho
	}
}
