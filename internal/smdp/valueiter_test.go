package smdp

import (
	"fmt"
	"math"
	"testing"
)

// TestValueIterationMatchesPolicyIteration: two independent solution
// algorithms for the appendix-A decision problem must agree on the
// optimal gain.
func TestValueIterationMatchesPolicyIteration(t *testing.T) {
	cases := []struct {
		k, m int
		p    float64
	}{
		{15, 5, 0.2},
		{30, 10, 0.08},
		{40, 25, 0.03},
	}
	for _, c := range cases {
		mod := mustModel(t, c.k, c.m, c.p)
		pi, err := mod.PolicyIteration(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		vi, err := mod.ValueIteration(1e-11, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pi.Gain-vi.Gain) > 1e-7*(1+pi.Gain) {
			t.Errorf("K=%d M=%d p=%v: PI gain %v vs VI gain %v", c.k, c.m, c.p, pi.Gain, vi.Gain)
		}
		// The value-iteration policy must be at least as good as the
		// policy-iteration one when evaluated exactly (ties allowed).
		viEval, err := mod.Evaluate(vi.Policy)
		if err != nil {
			t.Fatalf("VI policy infeasible: %v", err)
		}
		if viEval.Gain > pi.Gain+1e-9 {
			t.Errorf("VI policy gain %v worse than PI %v", viEval.Gain, pi.Gain)
		}
	}
}

func TestValueIterationHandComputableK1(t *testing.T) {
	p := 0.3
	mDur := 4
	mod := mustModel(t, 1, mDur, p)
	vi, err := mod.ValueIteration(1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := p * p * float64(mDur-1) / ((1-p)*1 + p*float64(mDur))
	if math.Abs(vi.Gain-want) > 1e-9 {
		t.Fatalf("VI gain %v, hand value %v", vi.Gain, want)
	}
}

func TestValueIterationDivergenceGuard(t *testing.T) {
	mod := mustModel(t, 20, 8, 0.1)
	if _, err := mod.ValueIteration(1e-16, 3); err == nil {
		t.Fatal("impossible tolerance within 3 sweeps accepted")
	}
}

// ValueIteration solves the same average-cost semi-Markov decision
// problem as PolicyIteration, by relative value iteration on the
// uniformized chain — an independent algorithm whose agreement with
// Howard's method (asserted by the tests below) validates the appendix-A
// machinery.
//
// Uniformization: with per-decision durations τ̄_i^a, the average-cost
// optimality equation
//
//	h(i) = min_a { r_i^a − g·τ̄_i^a + Σ_j p_ij^a h(j) }
//
// is solved by iterating the data-transformed operator and extracting g
// from the span of successive iterates (the standard SMDP-to-MDP
// transformation of Schweitzer; all durations here are >= 1 slot, so the
// transformation constant eta = 0.5 is safely inside (0, min τ̄)).
func (m *Model) ValueIteration(tol float64, maxIters int) (Solution, error) {
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIters <= 0 {
		maxIters = 200000
	}
	const eta = 0.5 // transformation constant, < every τ̄_i^a (all >= 1)

	// Precompute per-(state, action) data.
	type actData struct {
		a    int
		loss float64
		time float64
		next []float64
	}
	acts := make([][]actData, m.K+1)
	for i := 0; i <= m.K; i++ {
		for _, a := range m.Actions(i) {
			tr, err := m.Transitions(i, a)
			if err != nil {
				return Solution{}, err
			}
			acts[i] = append(acts[i], actData{a: a, loss: tr.ExpLoss, time: tr.ExpTime, next: tr.NextProb})
		}
	}

	h := make([]float64, m.K+1)
	hNew := make([]float64, m.K+1)
	pol := make(Policy, m.K+1)
	for iter := 0; iter < maxIters; iter++ {
		for i := 0; i <= m.K; i++ {
			best := math.Inf(1)
			bestA := 0
			for _, ad := range acts[i] {
				// Data transformation: cost per unit time with
				// self-loop smoothing.
				sum := 0.0
				for j := 1; j <= m.K; j++ {
					sum += ad.next[j] * h[j]
				}
				sum += ad.next[0] * h[0]
				q := ad.loss/ad.time + eta/ad.time*sum + (1-eta/ad.time)*h[i]
				if q < best {
					best = q
					bestA = ad.a
				}
			}
			hNew[i] = best
			pol[i] = bestA
		}
		// Span convergence test: max and min of hNew − h.
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range h {
			d := hNew[i] - h[i]
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		copy(h, hNew)
		if hi-lo < tol {
			g := (hi + lo) / 2
			values := make([]float64, m.K+1)
			base := h[0]
			for i := range values {
				values[i] = h[i] - base
			}
			return Solution{
				Policy:       append(Policy(nil), pol...),
				Gain:         g,
				LossFraction: g / m.ArrivalRate(),
				Values:       values,
				Iterations:   iter + 1,
			}, nil
		}
	}
	return Solution{}, fmt.Errorf("smdp: value iteration did not converge in %d sweeps", maxIters)
}
