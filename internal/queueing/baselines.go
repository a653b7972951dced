package queueing

import (
	"fmt"
	"math"

	"windowctl/internal/dist"
	"windowctl/internal/numerics"
)

// MG1 is a plain (infinitely patient) M/G/1 queue, modelling the
// *uncontrolled* window protocols of [Kurose 83]: every message is
// eventually transmitted; a message counts as lost when its waiting time
// exceeds the constraint, but it still consumes the channel.
type MG1 struct {
	// Lambda is the Poisson arrival rate.
	Lambda float64
	// Service is the service-time law.
	Service dist.Distribution
	// Step is the convolution grid spacing (0 = automatic).
	Step float64
	// MaxTerms bounds the Beneš series (0 = 4096).
	MaxTerms int
}

// Rho returns the offered load λ·E[X].
func (q MG1) Rho() float64 { return q.Lambda * q.Service.Mean() }

func (q MG1) validate() error {
	if q.Lambda <= 0 {
		return fmt.Errorf("queueing: arrival rate %v must be positive", q.Lambda)
	}
	if q.Service == nil || q.Service.Mean() <= 0 {
		return fmt.Errorf("queueing: invalid service distribution")
	}
	if q.Rho() >= 1 {
		return fmt.Errorf("queueing: unstable M/G/1 (rho=%v >= 1); the uncontrolled baseline has no steady state", q.Rho())
	}
	return nil
}

// WaitCDF evaluates the FCFS waiting-time distribution at the given points
// using the Beneš / Takács series
//
//	P(W <= w) = (1−ρ) Σ_{i≥0} ρ^i ∫₀ʷ β⁽ⁱ⁾(u) du ,
//
// the unfinished-work law whose truncation at K the paper's equation 4.4
// reuses.  P(W > K) is the loss fraction of the uncontrolled FCFS window
// protocol.
func (q MG1) WaitCDF(ws []float64) ([]float64, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	wMax := 0.0
	for _, w := range ws {
		if w < 0 {
			return nil, fmt.Errorf("queueing: negative evaluation point %v", w)
		}
		if w > wMax {
			wMax = w
		}
	}
	rho := q.Rho()
	if wMax == 0 {
		out := make([]float64, len(ws))
		for i := range out {
			out[i] = 1 - rho // P(W = 0) = P(idle)
		}
		return out, nil
	}
	step := q.Step
	if step <= 0 {
		step = math.Min(wMax, q.Service.Mean()) / 512
	}
	n := int(wMax/step) + 2
	xbar := q.Service.Mean()
	beta := numerics.Tabulate(func(u float64) float64 {
		return (1 - q.Service.CDF(u)) / xbar
	}, step, n)

	maxTerms := q.MaxTerms
	if maxTerms <= 0 {
		maxTerms = 4096
	}
	sums := make([]float64, len(ws))
	for j := range sums {
		sums[j] = 1 // i = 0 atom at zero
	}
	conv := beta.Clone()
	plan := numerics.NewConvolver(beta)
	pow := rho
	const tol = 1e-12
	for i := 1; i <= maxTerms; i++ {
		mass := conv.IntegralTo(wMax)
		for j, w := range ws {
			sums[j] += pow * conv.IntegralTo(w)
		}
		if pow*mass < tol {
			break
		}
		if i == maxTerms {
			return nil, fmt.Errorf("queueing: Beneš series did not converge in %d terms", maxTerms)
		}
		plan.ConvolveInto(conv, conv)
		pow *= rho
	}
	out := make([]float64, len(ws))
	for j := range ws {
		out[j] = (1 - rho) * sums[j]
		if out[j] > 1 {
			out[j] = 1
		}
	}
	return out, nil
}

// LossFCFS returns P(W > K) for the FCFS baseline.
func (q MG1) LossFCFS(k float64) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("queueing: negative constraint %v", k)
	}
	cdf, err := q.WaitCDF([]float64{k})
	if err != nil {
		return 0, err
	}
	return 1 - cdf[0], nil
}

// LossFCFSGrid returns P(W > K) for every constraint of ks at the cost of
// one Beneš series per shared quadrature grid instead of one per
// constraint (see ImpatientMG1.SolveGrid for the partitioning rule; the
// i-fold convolutions β⁽ⁱ⁾ are K-independent, so constraints on the same
// grid share them).  Results match per-K LossFCFS to rounding error.
func (q MG1) LossFCFSGrid(ks []float64) ([]float64, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	for _, k := range ks {
		if k < 0 {
			return nil, fmt.Errorf("queueing: negative constraint %v", k)
		}
	}
	rho := q.Rho()
	xbar := q.Service.Mean()
	out := make([]float64, len(ks))
	var zero []int // K = 0 constraints: P(W <= 0) = 1 − ρ exactly
	var pos []int
	for i, k := range ks {
		if k == 0 {
			zero = append(zero, i)
		} else {
			pos = append(pos, i)
		}
	}
	for _, i := range zero {
		out[i] = rho
	}
	for _, batch := range partitionConstraints(ks, pos, q.Step, xbar) {
		kMax := 0.0
		for _, i := range batch.idx {
			if ks[i] > kMax {
				kMax = ks[i]
			}
		}
		n := int(kMax/batch.step) + 2
		beta := numerics.Tabulate(func(u float64) float64 {
			return (1 - q.Service.CDF(u)) / xbar
		}, batch.step, n)
		reqs := make([]*seriesReq, len(batch.idx))
		for j, i := range batch.idx {
			reqs[j] = &seriesReq{k: ks[i], tol: 1e-12}
		}
		if err := runSeries(rho, beta, q.MaxTerms, reqs); err != nil {
			return nil, err
		}
		for j, i := range batch.idx {
			cdf := (1 - rho) * reqs[j].sum
			if cdf > 1 {
				cdf = 1
			}
			out[i] = 1 - cdf
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// LCFS (non-preemptive) baseline via transform inversion
// ---------------------------------------------------------------------------

// busyPeriodLST returns the busy-period transform θ(s), the unique root in
// the unit disk of θ = B*(s + λ − λθ), by functional iteration.
func (q MG1) busyPeriodLST(s complex128) complex128 {
	lambda := complex(q.Lambda, 0)
	return numerics.SolveFunctionalFixedPoint(func(th complex128) complex128 {
		return q.Service.LST(s + lambda - lambda*th)
	}, 1e-13, 20000)
}

// waitLSTLCFS returns the waiting-time LST of the non-preemptive LCFS
// M/G/1 queue:
//
//	W*(s) = (1−ρ) + ρ·R*(s + λ − λθ(s)) ,
//
// where R* is the residual-service transform (1 − B*(u))/(u·E[X]) and θ
// the busy-period transform: an arriving customer waits for the residual
// service of the customer in service plus the full sub-busy periods of
// everyone arriving during that residual time (they are younger and go
// first under LCFS).
func (q MG1) waitLSTLCFS(s complex128) complex128 {
	rho := q.Rho()
	theta := q.busyPeriodLST(s)
	u := s + complex(q.Lambda, 0)*(1-theta)
	bu := q.Service.LST(u)
	var rStar complex128
	if u == 0 {
		rStar = 1
	} else {
		rStar = (1 - bu) / (u * complex(q.Service.Mean(), 0))
	}
	return complex(1-rho, 0) + complex(rho, 0)*rStar
}

// WaitCDFLCFS evaluates the LCFS-NP waiting-time distribution at w > 0 by
// Euler inversion of W*(s)/s.  The result is clamped to [1−ρ, 1]: P(W=0)
// is exactly 1−ρ, so no smaller value is meaningful.
func (q MG1) WaitCDFLCFS(w float64) (float64, error) {
	if err := q.validate(); err != nil {
		return 0, err
	}
	if w <= 0 {
		return 1 - q.Rho(), nil
	}
	v := numerics.InvertLaplaceEuler(func(s complex128) complex128 {
		return q.waitLSTLCFS(s) / s
	}, w)
	lo := 1 - q.Rho()
	if v < lo {
		v = lo
	}
	if v > 1 {
		v = 1
	}
	return v, nil
}

// LossLCFS returns P(W > K) for the LCFS baseline.
func (q MG1) LossLCFS(k float64) (float64, error) {
	cdf, err := q.WaitCDFLCFS(k)
	if err != nil {
		return 0, err
	}
	return 1 - cdf, nil
}

// LossLCFSGrid returns P(W > K) for every constraint of ks.  The LCFS law
// is inverted per constraint (Euler inversion has no cross-K sharing), but
// the batched entry point validates once and matches the other *Grid
// solvers so callers can evaluate a whole panel curve in one call.
func (q MG1) LossLCFSGrid(ks []float64) ([]float64, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	out := make([]float64, len(ks))
	for i, k := range ks {
		loss, err := q.LossLCFS(k)
		if err != nil {
			return nil, fmt.Errorf("queueing: LCFS loss at K=%v: %w", k, err)
		}
		out[i] = loss
	}
	return out, nil
}
