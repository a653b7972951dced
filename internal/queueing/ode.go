package queueing

import (
	"fmt"

	"windowctl/internal/numerics"
)

// UnfinishedWorkODE solves the paper's equation 4.2a directly — the
// integro-differential equation for the stationary distribution F(w) of
// unfinished work in the impatient M/G/1 queue, on 0 < w <= K:
//
//	0 = dF/dw − λ·F(w) + λ·∫₀ʷ B(w−x) dF(x)
//
// It is an independent derivation path from the Beneš-series solution
// (equation 4.4) used by ImpatientMG1.Solve: here the equation is
// integrated forward as a Volterra problem from the atom F(0) = P(0),
// and P(0) is then fixed by the same flow-conservation argument
// (figure 6): ρ·p(accept) = 1 − P(0) with p(accept) = F(K)
// (normalizing F as the *unnormalized* work distribution with F(0) = 1
// and scaling at the end).  Agreement between the two paths — asserted
// by the tests — validates both the series machinery and the equation
// manipulation in §4.1.
//
// The forward integration uses the trapezoid (Crank–Nicolson-style)
// discretization of the convolution term on a uniform grid of n steps.
type UnfinishedWorkODE struct {
	// Lambda is the arrival rate of all messages.
	Lambda float64
	// Service is the service-time law B.
	Service interface {
		CDF(x float64) float64
		Mean() float64
	}
	// Steps is the grid resolution (0 means 4096).
	Steps int
}

// ODEResult carries the solved quantities.
type ODEResult struct {
	// Loss is p(loss) = 1 − p(accept).
	Loss float64
	// ServerIdle is P(0).
	ServerIdle float64
	// WorkCDF is the distribution of unfinished work on [0, K], already
	// scaled so its first sample is P(0) and its last p(accept).
	WorkCDF *numerics.Grid
}

// Solve integrates equation 4.2a on (0, K] and applies flow conservation.
func (o UnfinishedWorkODE) Solve(k float64) (ODEResult, error) {
	if o.Lambda <= 0 {
		return ODEResult{}, fmt.Errorf("queueing: ODE needs positive Lambda")
	}
	if o.Service == nil || o.Service.Mean() <= 0 {
		return ODEResult{}, fmt.Errorf("queueing: ODE needs a service law with positive mean")
	}
	if k <= 0 {
		return ODEResult{}, fmt.Errorf("queueing: ODE needs positive K")
	}
	n := o.Steps
	if n <= 0 {
		n = 4096
	}
	hStep := k / float64(n)
	lam := o.Lambda

	// Work with the unnormalized G(w) = F(w)/P(0), so G(0) = 1.
	// G'(w) = λ·G(w) − λ·∫₀ʷ B(w−x) dG(x).
	// The Stieltjes integral has an atom at x = 0 of mass G(0) = 1 plus
	// the absolutely continuous part with density G'(x):
	//   ∫₀ʷ B(w−x) dG(x) = B(w)·1 + ∫₀ʷ B(w−x) G'(x) dx.
	g := make([]float64, n+1)  // G on the grid
	gp := make([]float64, n+1) // G' on the grid
	g[0] = 1
	// Right-hand side at w = 0⁺: G'(0) = λ·1 − λ·B(0).
	gp[0] = lam * (1 - o.Service.CDF(0))
	// March forward: at each step solve the implicit trapezoid update for
	// G'(w_i), which appears linearly (through the convolution's i-th
	// endpoint with B(0) weight and through G(w_i)).
	b := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		b[i] = o.Service.CDF(float64(i) * hStep)
	}
	for i := 1; i <= n; i++ {
		// conv_i = B(w_i) + Σ'_{j=0..i} B(w_i − w_j)·G'(w_j)·h (trapezoid)
		// Split off the j = i term (weight h/2, factor B(0)·G'(w_i)).
		conv := b[i]
		for j := 0; j < i; j++ {
			wgt := hStep
			if j == 0 {
				wgt = hStep / 2
			}
			conv += wgt * b[i-j] * gp[j]
		}
		// Trapezoid update of G and the defining equation:
		//   G(w_i)  = G(w_{i-1}) + h/2·(G'(w_{i-1}) + G'(w_i))
		//   G'(w_i) = λ·G(w_i) − λ·(conv + h/2·B(0)·G'(w_i))
		// Substitute and solve for G'(w_i):
		//   G'(w_i)·(1 − λh/2 + λh/2·B(0)) =
		//       λ·(G(w_{i-1}) + h/2·G'(w_{i-1})) − λ·conv
		den := 1 - lam*hStep/2 + lam*hStep/2*b[0]
		num := lam*(g[i-1]+hStep/2*gp[i-1]) - lam*conv
		gp[i] = num / den
		g[i] = g[i-1] + hStep/2*(gp[i-1]+gp[i])
	}

	// Flow conservation: p(accept) = P(0)·G(K) (since F = P(0)·G) and
	// ρ·p(accept) = 1 − P(0)  ⇒  P(0) = 1/(1 + ρ·G(K)).
	rho := lam * o.Service.Mean()
	p0 := 1 / (1 + rho*g[n])
	accept := p0 * g[n]
	loss := 1 - accept
	if loss < 0 {
		loss = 0
	}
	if loss > 1 {
		loss = 1
	}
	cdf := numerics.NewGrid(hStep, n+1)
	for i := range cdf.Y {
		cdf.Y[i] = p0 * g[i]
	}
	return ODEResult{Loss: loss, ServerIdle: p0, WorkCDF: cdf}, nil
}
