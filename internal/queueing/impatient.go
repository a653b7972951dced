package queueing

import (
	"fmt"
	"math"

	"windowctl/internal/dist"
	"windowctl/internal/numerics"
)

// ImpatientMG1 is the M/G/1 queue with impatient customers of §4.1
// (figure 5b): Poisson arrivals at rate Lambda join the FCFS queue if and
// only if the unfinished work they find is below the constraint; otherwise
// they are lost.  Service times follow the law Service.
type ImpatientMG1 struct {
	// Lambda is the arrival rate of all messages, lost or not.
	Lambda float64
	// Service is the service-time law (scheduling + transmission).
	Service dist.Distribution
	// Step is the grid spacing for the numerical convolutions; if zero, a
	// spacing of min(K, mean service)/512 is chosen.
	Step float64
	// MaxTerms bounds the convolution series; 0 means 4096.
	MaxTerms int
}

// Result carries the solved queue quantities.
type Result struct {
	// Loss is p(loss) of equation 4.7: the probability an arriving
	// message finds unfinished work above K and is lost.
	Loss float64
	// ServerIdle is P(0), the probability the server is idle.
	ServerIdle float64
	// Rho is the offered load λ·E[service].
	Rho float64
	// Z is the truncated-series value z(K, ρ) of equation 4.7.
	Z float64
	// Terms is the number of series terms summed.
	Terms int
}

// Solve computes the loss probability for constraint K > 0 using the
// paper's equation 4.7:
//
//	p(loss) = 1 − z/(1 + ρ·z),   z(K,ρ) = Σ_{i≥0} ρ^i ∫₀ᴷ β⁽ⁱ⁾(w) dw,
//
// where β is the residual-service density and β⁽ⁱ⁾ its i-fold convolution
// (β⁽⁰⁾ is the unit atom at 0, contributing 1).  Unlike the plain M/G/1,
// the impatient queue is stable for any ρ, and the series converges for
// ρ ≥ 1 too because ∫₀ᴷβ⁽ⁱ⁾ eventually decays super-geometrically.
func (q ImpatientMG1) Solve(k float64) (Result, error) {
	res, err := q.SolveGrid([]float64{k})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// SolveGrid computes equation 4.7 at every constraint of ks in one pass:
// the i-fold convolutions β⁽ⁱ⁾ do not depend on K, so one shared series
// feeds the prefix integrals ∫₀ᵏʲ β⁽ⁱ⁾ of every constraint, and a grid of
// constraints costs one convolution series instead of len(ks).  Results
// match per-K Solve to rounding error: constraints are partitioned onto
// exactly the quadrature grids Solve would have chosen (with the automatic
// spacing, every constraint at or above the mean service time shares one
// grid; shorter constraints keep their own finer grid), and each
// constraint stops accumulating by its own per-K stopping rule.
func (q ImpatientMG1) SolveGrid(ks []float64) ([]Result, error) {
	if len(ks) == 0 {
		return nil, nil
	}
	for _, k := range ks {
		if err := q.validate(k); err != nil {
			return nil, err
		}
	}
	xbar := q.Service.Mean()
	rho := q.Lambda * xbar
	out := make([]Result, len(ks))
	for _, batch := range partitionConstraints(ks, nil, q.Step, xbar) {
		kMax := 0.0
		for _, i := range batch.idx {
			if ks[i] > kMax {
				kMax = ks[i]
			}
		}
		beta := q.residualGridStep(kMax, batch.step)
		reqs := make([]*seriesReq, len(batch.idx))
		for n, i := range batch.idx {
			reqs[n] = &seriesReq{k: ks[i], clamp: true, tol: 1e-10, rhoGuard: true}
		}
		if err := runSeries(rho, beta, q.MaxTerms, reqs); err != nil {
			return nil, err
		}
		for n, i := range batch.idx {
			z := reqs[n].sum
			// p(loss) = 1 − z/(1+ρz); equivalently the paper's
			// 1 − ρ⁻¹ + 1/(ρ+ρ²z).
			loss := 1 - z/(1+rho*z)
			p0 := 1 / (1 + rho*z) // ρ·p(accept) = 1 − P(0), p(accept) = P(0)·z
			if loss < 0 {
				loss = 0
			}
			if loss > 1 {
				loss = 1
			}
			out[i] = Result{Loss: loss, ServerIdle: p0, Rho: rho, Z: z, Terms: reqs[n].terms}
		}
	}
	return out, nil
}

func (q ImpatientMG1) validate(k float64) error {
	if q.Lambda <= 0 {
		return fmt.Errorf("queueing: arrival rate %v must be positive", q.Lambda)
	}
	if q.Service == nil {
		return fmt.Errorf("queueing: missing service distribution")
	}
	if q.Service.Mean() <= 0 {
		return fmt.Errorf("queueing: service mean must be positive")
	}
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return fmt.Errorf("queueing: constraint K=%v must be positive and finite", k)
	}
	return nil
}

// residualGridStep tabulates β on [0, k] at an explicit spacing.
func (q ImpatientMG1) residualGridStep(k, step float64) *numerics.Grid {
	n := int(k/step) + 2
	xbar := q.Service.Mean()
	return numerics.Tabulate(func(w float64) float64 {
		return (1 - q.Service.CDF(w)) / xbar
	}, step, n)
}

// AcceptedWaitCDF returns the waiting-time distribution of *accepted*
// messages evaluated at w <= K:
//
//	P(W <= w | accepted) = F(w)/F(K),  F(w) = P(0)·Σ ρ^i ∫₀ʷ β⁽ⁱ⁾
//
// (equation 4.4 normalized by the acceptance probability).
func (q ImpatientMG1) AcceptedWaitCDF(k float64, ws []float64) ([]float64, error) {
	if err := q.validate(k); err != nil {
		return nil, err
	}
	for _, w := range ws {
		if w < 0 || w > k {
			return nil, fmt.Errorf("queueing: evaluation point %v outside [0, K]", w)
		}
	}
	rho := q.Lambda * q.Service.Mean()
	step := q.Step
	if step <= 0 {
		step = math.Min(k, q.Service.Mean()) / 512
	}
	beta := q.residualGridStep(k, step)
	maxTerms := q.MaxTerms
	if maxTerms <= 0 {
		maxTerms = 4096
	}
	sums := make([]float64, len(ws)) // Σ ρ^i ∫₀^{w_j} β⁽ⁱ⁾
	for j := range sums {
		sums[j] = 1 // i = 0 atom
	}
	zK := 1.0
	conv := beta.Clone()
	plan := numerics.NewConvolver(beta)
	pow := rho
	for i := 1; i <= maxTerms; i++ {
		mass := conv.IntegralTo(k)
		term := pow * mass
		zK += term
		for j, w := range ws {
			sums[j] += pow * conv.IntegralTo(w)
		}
		if term < 1e-10 && (rho < 1 || mass < 1/(2*rho)) {
			break
		}
		plan.ConvolveInto(conv, conv)
		pow *= rho
	}
	out := make([]float64, len(ws))
	for j := range ws {
		out[j] = sums[j] / zK
		if out[j] > 1 {
			out[j] = 1
		}
	}
	return out, nil
}
