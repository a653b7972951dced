package queueing

import (
	"fmt"

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

// LossFCFS returns P(W > K) for the FCFS baseline, from the Beneš /
// Takács series of the waiting-time distribution
//
//	P(W <= K) = (1−ρ) Σ_{i≥0} ρ^i ∫₀ᴷ β⁽ⁱ⁾(u) du ,
//
// the unfinished-work law whose truncation at K the paper's equation 4.4
// reuses.  P(W > K) is the loss fraction of the uncontrolled FCFS window
// protocol.
func (q MG1) LossFCFS(k float64) (float64, error) {
	if k < 0 {
		return 0, fmt.Errorf("queueing: negative constraint %v", k)
	}
	if err := q.validate(); err != nil {
		return 0, err
	}
	rho := q.Rho()
	if k == 0 {
		return 1 - (1 - rho), nil // P(W > 0) = 1 − P(idle)
	}
	step, err := gridStep(k, q.Service.Mean())
	if err != nil {
		return 0, err
	}
	r := &seriesReq{k: k}
	if err := runSeries(rho, q.Service, step, []*seriesReq{r}); err != nil {
		return 0, err
	}
	return r.fcfsLoss(rho), nil
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
