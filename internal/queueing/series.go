package queueing

import (
	"fmt"
	"math"

	"windowctl/internal/numerics"
)

// This file holds the shared convolution-series engine behind the batched
// multi-K solvers.  Both analytic waiting-time laws of the harness are
// truncated power series over i-fold self-convolutions of the residual
// service density β:
//
//	eq 4.7 (controlled):  z(K,ρ)   = Σ ρ^i ∫₀ᴷ β⁽ⁱ⁾       (masses clamped)
//	Beneš  (FCFS):        P(W≤K)/(1−ρ) = Σ ρ^i ∫₀ᴷ β⁽ⁱ⁾
//
// The β⁽ⁱ⁾ are by far the dominant cost (one FFT convolution per term), and
// they do not depend on K at all — only the prefix integrals do.  The
// engine therefore runs the convolution series once per (service law, grid)
// pair and lets any number of "requests" — different constraints K, and
// even different series flavours — accumulate their prefix sums from the
// same β⁽ⁱ⁾ stream.  A figure-7 panel that used to pay one series per
// curve point pays one series per panel.

// seriesReq is one consumer of a shared ρ^i·β⁽ⁱ⁾ convolution series: a
// prefix-integration point K with the stopping rule of the solver it
// belongs to.  Stopping is evaluated per request, exactly as the per-K
// solvers do, so batched results match per-K results term for term.
type seriesReq struct {
	// k is the prefix-integration point ∫₀ᵏ β⁽ⁱ⁾.
	k float64
	// clamp enforces non-increasing masses (the eq 4.7 z-series guards
	// against trapezoid overshoot on lattice service laws this way).
	clamp bool
	// tol freezes the request once its term drops below this value.
	tol float64
	// rhoGuard marks the eq 4.7 z-series, whose queue is stable beyond
	// ρ = 1.  Past saturation its terms grow before they decay, so it
	// freezes on a small term only once mass < 1/(2ρ), and it also
	// freezes once the loss is pinned (see runSeries).  The plain Beneš
	// series is only ever run with ρ < 1 and needs neither.
	rhoGuard bool

	// sum accumulates 1 + Σ ρ^i·mass_i; terms counts the summed terms
	// including the i = 0 atom.
	sum      float64
	prevMass float64
	terms    int
	done     bool
}

// runSeries advances the shared convolution series until every request has
// frozen, convolving β with itself once per term through a cached FFT plan.
// It errors if any request is still accumulating after maxTerms terms.
func runSeries(rho float64, beta *numerics.Grid, maxTerms int, reqs []*seriesReq) error {
	if maxTerms <= 0 {
		maxTerms = 4096
	}
	remaining := 0
	for _, r := range reqs {
		r.sum = 1 // i = 0 term: unit atom at 0
		r.prevMass = 1
		r.terms = 1
		if !r.done {
			remaining++
		}
	}
	if remaining == 0 {
		return nil
	}
	conv := beta.Clone()
	plan := numerics.NewConvolver(beta)
	pow := rho
	for i := 1; i <= maxTerms; i++ {
		for _, r := range reqs {
			if r.done {
				continue
			}
			mass := conv.IntegralTo(r.k)
			// Trapezoid quadrature over service laws with atoms (the
			// geometric-lattice scheduling component) can overshoot the
			// true mass by O(step); the true masses are provably
			// non-increasing, so clamp rather than propagate the wiggle.
			if r.clamp && mass > r.prevMass {
				mass = r.prevMass
			}
			r.prevMass = mass
			term := pow * mass
			r.sum += term
			r.terms = i + 1
			// Tail bound: a_{i+j} <= a_i · a₁^j is valid but a₁ can
			// exceed 1/ρ early on; stop when the current term is tiny
			// and (for the guarded series) provably decaying.  Past
			// saturation, the loss 1 − z/(1+ρz) falls toward its floor
			// 1 − 1/ρ as z grows, and the partial sum's loss lies
			// exactly 1/(ρ(1+ρz)) above that floor.  The true z is at
			// least the partial sum, so once that gap is below tol the
			// true loss is pinned between the floor and the partial
			// loss, however far the terms have yet to run.
			if term < r.tol && (!r.rhoGuard || rho < 1 || mass < 1/(2*rho)) ||
				r.rhoGuard && rho > 1 && 1/(rho*(1+rho*r.sum)) < r.tol {
				r.done = true
				remaining--
			}
		}
		if remaining == 0 {
			return nil
		}
		if i == maxTerms {
			return fmt.Errorf("queueing: convolution series did not converge in %d terms", maxTerms)
		}
		plan.ConvolveInto(conv, conv)
		pow *= rho
	}
	return nil
}

// seriesBatch partitions constraints so that every member of a partition
// runs on the identical quadrature grid its per-K solver would have chosen,
// keeping batched results interchangeable with per-K results.  With an
// explicit step every constraint shares one partition; with the automatic
// spacing min(K, E[X])/512, constraints at or above the mean service time
// share the spacing E[X]/512 (one partition — the common case on a figure-7
// panel) while shorter constraints get their own finer grid.
type seriesBatch struct {
	step float64
	idx  []int // positions into the caller's constraint slice
}

// partitionConstraints groups the constraints at positions idx of ks (nil
// meaning all of them) into seriesBatch runs; step <= 0 selects the
// automatic per-K spacing rule.
func partitionConstraints(ks []float64, idx []int, step, xbar float64) []seriesBatch {
	if idx == nil {
		idx = make([]int, len(ks))
		for i := range ks {
			idx[i] = i
		}
	}
	if step > 0 {
		return []seriesBatch{{step: step, idx: idx}}
	}
	var batches []seriesBatch
	byStep := map[float64]int{} // default step -> position in batches
	for _, i := range idx {
		s := math.Min(ks[i], xbar) / 512
		b, ok := byStep[s]
		if !ok {
			b = len(batches)
			byStep[s] = b
			batches = append(batches, seriesBatch{step: s})
		}
		batches[b].idx = append(batches[b].idx, i)
	}
	return batches
}
