package smdp

import (
	"fmt"
	"math"

	"windowctl/internal/linalg"
)

// Policy assigns a window length to every state; Policy[0] is the wait
// pseudo-action 0.
type Policy []int

// Solution is the result of policy iteration or of a single policy
// evaluation.
type Solution struct {
	// Policy is the (final) window-length rule.
	Policy Policy
	// Gain is the long-run average pseudo loss per slot.
	Gain float64
	// LossFraction is the long-run fraction of messages lost
	// (Gain / arrivals-per-slot) — the quantity figure 7 plots.
	LossFraction float64
	// Values are the relative values v_i (v_0 = 0), appendix A's {v_j}.
	Values []float64
	// Iterations counts policy-improvement rounds (1 for Evaluate).
	Iterations int
}

// HeuristicPolicy is the paper's element-(2) heuristic transplanted into
// the discrete model: use the window size closest to gStar/P messages of
// expected content, clamped to the available span.
func (m *Model) HeuristicPolicy(gStar float64) Policy {
	want := int(math.Round(gStar / m.P))
	if want < 1 {
		want = 1
	}
	pol := make(Policy, m.K+1)
	for i := 1; i <= m.K; i++ {
		a := want
		if a > i {
			a = i
		}
		pol[i] = a
	}
	return pol
}

// validatePolicy checks feasibility.
func (m *Model) validatePolicy(pol Policy) error {
	if len(pol) != m.K+1 {
		return fmt.Errorf("smdp: policy has %d entries, want %d", len(pol), m.K+1)
	}
	if pol[0] != 0 {
		return fmt.Errorf("smdp: state 0 must use the wait action")
	}
	for i := 1; i <= m.K; i++ {
		if pol[i] < 1 || pol[i] > i {
			return fmt.Errorf("smdp: action %d infeasible in state %d", pol[i], i)
		}
	}
	return nil
}

// Evaluate performs the value-determination step (appendix A, equation
// A1): it solves v_i + g·τ̄_i = r_i + Σ_j p_ij v_j with v_0 = 0 for the
// given stationary policy, returning its gain and relative values.
func (m *Model) Evaluate(pol Policy) (Solution, error) {
	if err := m.validatePolicy(pol); err != nil {
		return Solution{}, err
	}
	n := m.K + 1
	// Unknowns: x = (v_1, …, v_K, g) with v_0 pinned to 0.  The equation
	// for state i reads v_i + g·τ̄_i − Σ_j p_ij v_j = r_i; the v_0 terms
	// vanish.  Rows 0..K−1 hold states 1..K; the last row holds state 0.
	A := linalg.NewMatrix(n, n)
	b := make([]float64, n)
	for i := 0; i <= m.K; i++ {
		tr, err := m.Transitions(i, pol[i])
		if err != nil {
			return Solution{}, err
		}
		row := i - 1
		if i == 0 {
			row = n - 1
		}
		for j := 1; j <= m.K; j++ {
			A.Set(row, j-1, -tr.NextProb[j])
		}
		if i >= 1 {
			A.Add(row, i-1, 1) // the +v_i term
		}
		A.Set(row, n-1, tr.ExpTime) // the +g·τ̄_i term
		b[row] = tr.ExpLoss
	}
	x, err := linalg.Solve(A, b)
	if err != nil {
		return Solution{}, fmt.Errorf("smdp: value determination: %w", err)
	}
	values := make([]float64, m.K+1)
	copy(values[1:], x[:m.K])
	g := x[n-1]
	return Solution{
		Policy:       append(Policy(nil), pol...),
		Gain:         g,
		LossFraction: g / m.ArrivalRate(),
		Values:       values,
		Iterations:   1,
	}, nil
}

// PolicyIteration runs Howard's algorithm from the heuristic policy (or
// from the supplied initial policy, if non-nil) and returns the optimal
// window-length rule with its gain.  It errors if the iteration fails to
// converge within maxRounds.
func (m *Model) PolicyIteration(initial Policy, maxRounds int) (Solution, error) {
	if maxRounds <= 0 {
		maxRounds = 100
	}
	pol := initial
	if pol == nil {
		pol = m.HeuristicPolicy(1.0)
	}
	if err := m.validatePolicy(pol); err != nil {
		return Solution{}, err
	}
	var sol Solution
	for round := 1; round <= maxRounds; round++ {
		var err error
		sol, err = m.Evaluate(pol)
		if err != nil {
			return Solution{}, err
		}
		// Improvement: minimize the test quantity
		// r_i^a − g·τ̄_i^a + Σ_j p_ij^a v_j  (appendix A, equation A2,
		// written for minimization).
		improved := false
		next := append(Policy(nil), pol...)
		for i := 1; i <= m.K; i++ {
			bestA, bestQ := pol[i], math.Inf(1)
			for _, a := range m.Actions(i) {
				tr, err := m.Transitions(i, a)
				if err != nil {
					return Solution{}, err
				}
				q := tr.ExpLoss - sol.Gain*tr.ExpTime
				for j := 1; j <= m.K; j++ {
					q += tr.NextProb[j] * sol.Values[j]
				}
				if q < bestQ-1e-12 {
					bestQ, bestA = q, a
				}
			}
			if bestA != pol[i] {
				// Only adopt strictly better actions to avoid cycling.
				curTr, err := m.Transitions(i, pol[i])
				if err != nil {
					return Solution{}, err
				}
				curQ := curTr.ExpLoss - sol.Gain*curTr.ExpTime
				for j := 1; j <= m.K; j++ {
					curQ += curTr.NextProb[j] * sol.Values[j]
				}
				if bestQ < curQ-1e-10 {
					next[i] = bestA
					improved = true
				}
			}
		}
		if !improved {
			sol.Iterations = round
			return sol, nil
		}
		pol = next
	}
	return Solution{}, fmt.Errorf("smdp: policy iteration did not converge in %d rounds", maxRounds)
}
