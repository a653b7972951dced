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
	if err := q.validate(k); err != nil {
		return Result{}, err
	}
	xbar := q.Service.Mean()
	step, err := gridStep(k, xbar)
	if err != nil {
		return Result{}, err
	}
	rho := q.Lambda * xbar
	r := &seriesReq{k: k, controlled: true}
	if err := runSeries(rho, q.Service, step, []*seriesReq{r}); err != nil {
		return Result{}, err
	}
	return r.result(rho), nil
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
	step, err := gridStep(k, q.Service.Mean())
	if err != nil {
		return nil, err
	}
	beta := residualDensity(q.Service, k, step)
	sums := make([]float64, len(ws)) // Σ ρ^i ∫₀^{w_j} β⁽ⁱ⁾
	for j := range sums {
		sums[j] = 1 // i = 0 atom
	}
	zK := 1.0
	conv := beta.Clone()
	plan := numerics.NewConvolver(beta)
	pow := rho
	for i := 1; i <= maxSeriesTerms; i++ {
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
