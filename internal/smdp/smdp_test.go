package smdp

import (
	"fmt"
	"math"
	"testing"

	"windowctl/internal/linalg"
	"windowctl/internal/rngutil"
)

func mustModel(t *testing.T, k, m int, p float64) *Model {
	t.Helper()
	mod, err := NewModel(k, m, p)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestNewModelValidation(t *testing.T) {
	cases := []struct {
		k, m int
		p    float64
	}{
		{0, 5, 0.1}, {5, 0, 0.1}, {5, 5, 0}, {5, 5, 1}, {5, 5, -0.2},
	}
	for i, c := range cases {
		if _, err := NewModel(c.k, c.m, c.p); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestResolveFreshProbabilitiesSum(t *testing.T) {
	for _, p := range []float64{0.05, 0.3, 0.7} {
		mod := mustModel(t, 64, 10, p)
		for _, a := range []int{1, 2, 3, 7, 16, 33, 64} {
			sum := 0.0
			for _, o := range mod.ResolveFresh(a) {
				if o.Prob < 0 {
					t.Fatalf("negative probability at a=%d", a)
				}
				sum += o.Prob
			}
			if math.Abs(sum-1) > 1e-10 {
				t.Fatalf("p=%v a=%d: outcome mass %v", p, a, sum)
			}
		}
	}
}

func TestResolveFreshSingleUnit(t *testing.T) {
	// A one-unit window cannot collide: idle w.p. q, success w.p. p.
	p := 0.3
	mod := mustModel(t, 8, 5, p)
	outs := mod.ResolveFresh(1)
	if len(outs) != 2 {
		t.Fatalf("outcomes: %+v", outs)
	}
	for _, o := range outs {
		if o.Examined != 1 {
			t.Fatalf("one-unit window examined %d", o.Examined)
		}
		if o.Success && (math.Abs(o.Prob-p) > 1e-12 || o.Sigma != 5) {
			t.Fatalf("success outcome %+v", o)
		}
		if !o.Success && (math.Abs(o.Prob-0.7) > 1e-12 || o.Sigma != 1) {
			t.Fatalf("idle outcome %+v", o)
		}
	}
}

func TestResolveFreshTwoUnitsHandComputed(t *testing.T) {
	// a=2: both occupied w.p. p² -> collision, then the older unit (1 of
	// them) succeeds: σ = 1 + 0 + M, e = 1.
	p := 0.4
	q := 1 - p
	mod := mustModel(t, 8, 3, p)
	var collision *Outcome
	for _, o := range mod.ResolveFresh(2) {
		o := o
		if o.Sigma == 1+0+3 && o.Examined == 1 {
			collision = &o
		}
	}
	if collision == nil {
		t.Fatal("collision outcome missing")
	}
	if math.Abs(collision.Prob-p*p) > 1e-12 {
		t.Fatalf("collision prob %v, want %v", collision.Prob, p*p)
	}
	_ = q
}

// monteCarloResolve replays the discrete resolution directly (independent
// implementation) to cross-check ResolveFresh.
func monteCarloResolve(a, m int, p float64, r *rngutil.Stream) (sigma, examined int, success bool) {
	occ := make([]bool, a)
	n := 0
	for i := range occ {
		occ[i] = r.Bernoulli(p)
		if occ[i] {
			n++
		}
	}
	count := func(lo, hi int) int {
		c := 0
		for i := lo; i < hi; i++ {
			if occ[i] {
				c++
			}
		}
		return c
	}
	type win struct{ lo, hi int }
	w := win{0, a}
	sibling := win{-1, -1}
	for {
		c := count(w.lo, w.hi)
		switch {
		case c == 0:
			sigma++
			examined += w.hi - w.lo
			if sibling.lo < 0 {
				return sigma, examined, false
			}
			// Split the sibling (known >= 2).
			mid := sibling.lo + (sibling.hi-sibling.lo+1)/2
			w, sibling = win{sibling.lo, mid}, win{mid, sibling.hi}
		case c == 1:
			sigma += m
			examined += w.hi - w.lo
			return sigma, examined, true
		default:
			sigma++
			mid := w.lo + (w.hi-w.lo+1)/2
			w, sibling = win{w.lo, mid}, win{mid, w.hi}
		}
	}
}

func TestResolveFreshAgainstMonteCarlo(t *testing.T) {
	r := rngutil.New(55)
	for _, tc := range []struct {
		a int
		p float64
	}{{4, 0.3}, {7, 0.25}, {16, 0.12}, {5, 0.6}} {
		mod := mustModel(t, 64, 9, tc.p)
		wantSigma, wantExam, wantSucc := 0.0, 0.0, 0.0
		for _, o := range mod.ResolveFresh(tc.a) {
			wantSigma += o.Prob * float64(o.Sigma)
			wantExam += o.Prob * float64(o.Examined)
			if o.Success {
				wantSucc += o.Prob
			}
		}
		const n = 200000
		var gotSigma, gotExam, gotSucc float64
		for i := 0; i < n; i++ {
			s, e, ok := monteCarloResolve(tc.a, 9, tc.p, r)
			gotSigma += float64(s)
			gotExam += float64(e)
			if ok {
				gotSucc++
			}
		}
		gotSigma /= n
		gotExam /= n
		gotSucc /= n
		if math.Abs(gotSigma-wantSigma) > 0.03*wantSigma+0.01 {
			t.Fatalf("a=%d p=%v: E[σ] MC %v vs exact %v", tc.a, tc.p, gotSigma, wantSigma)
		}
		if math.Abs(gotExam-wantExam) > 0.03*wantExam+0.01 {
			t.Fatalf("a=%d p=%v: E[e] MC %v vs exact %v", tc.a, tc.p, gotExam, wantExam)
		}
		if math.Abs(gotSucc-wantSucc) > 0.01 {
			t.Fatalf("a=%d p=%v: P(succ) MC %v vs exact %v", tc.a, tc.p, gotSucc, wantSucc)
		}
	}
}

func TestTransitionsMassAndBounds(t *testing.T) {
	mod := mustModel(t, 20, 5, 0.2)
	for i := 0; i <= 20; i++ {
		for _, a := range mod.Actions(i) {
			tr, err := mod.Transitions(i, a)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, p := range tr.NextProb {
				if p < 0 {
					t.Fatal("negative transition probability")
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-10 {
				t.Fatalf("state %d action %d: transition mass %v", i, a, sum)
			}
			if tr.ExpLoss < 0 || tr.ExpTime < 1 {
				t.Fatalf("state %d action %d: loss %v time %v", i, a, tr.ExpLoss, tr.ExpTime)
			}
		}
	}
}

func TestTransitionsErrors(t *testing.T) {
	mod := mustModel(t, 10, 5, 0.2)
	if _, err := mod.Transitions(11, 1); err == nil {
		t.Fatal("state beyond K accepted")
	}
	if _, err := mod.Transitions(5, 0); err == nil {
		t.Fatal("wait action outside state 0 accepted")
	}
	if _, err := mod.Transitions(5, 6); err == nil {
		t.Fatal("window longer than span accepted")
	}
}

func TestEvaluateHandComputableK1(t *testing.T) {
	// K=1: state 1 self-loops under a=1.  Loss rate
	// g = p·P·(M−1) / (q·1 + p·M).
	p := 0.3
	mDur := 4
	mod := mustModel(t, 1, mDur, p)
	sol, err := mod.Evaluate(Policy{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := p * p * float64(mDur-1) / ((1-p)*1 + p*float64(mDur))
	if math.Abs(sol.Gain-want) > 1e-10 {
		t.Fatalf("gain %v, hand value %v", sol.Gain, want)
	}
	if math.Abs(sol.LossFraction-want/p) > 1e-10 {
		t.Fatalf("loss fraction %v", sol.LossFraction)
	}
}

// chainSimulate runs the Markov chain of a fixed policy directly and
// measures the empirical loss rate.
func chainSimulate(mod *Model, pol Policy, steps int, seed uint64) float64 {
	r := rngutil.New(seed)
	state := 0
	lossSum, timeSum := 0.0, 0.0
	for s := 0; s < steps; s++ {
		tr, err := mod.Transitions(state, pol[state])
		if err != nil {
			panic(err)
		}
		lossSum += tr.ExpLoss
		timeSum += tr.ExpTime
		u := r.Float64()
		acc := 0.0
		next := mod.K
		for j, pj := range tr.NextProb {
			acc += pj
			if u < acc {
				next = j
				break
			}
		}
		state = next
	}
	return lossSum / timeSum
}

func TestEvaluateMatchesChainSimulation(t *testing.T) {
	mod := mustModel(t, 25, 8, 0.15)
	pol := mod.HeuristicPolicy(1.1)
	sol, err := mod.Evaluate(pol)
	if err != nil {
		t.Fatal(err)
	}
	sim := chainSimulate(mod, pol, 400000, 3)
	if math.Abs(sim-sol.Gain) > 0.03*sol.Gain+1e-4 {
		t.Fatalf("chain sim %v vs evaluated gain %v", sim, sol.Gain)
	}
}

func TestPolicyIterationImproves(t *testing.T) {
	mod := mustModel(t, 30, 10, 0.1)
	// Start from a deliberately bad policy: always window a single unit.
	bad := make(Policy, 31)
	for i := 1; i <= 30; i++ {
		bad[i] = 1
	}
	badSol, err := mod.Evaluate(bad)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := mod.PolicyIteration(bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Gain > badSol.Gain+1e-12 {
		t.Fatalf("optimal gain %v worse than initial %v", opt.Gain, badSol.Gain)
	}
	if opt.Iterations < 2 {
		t.Fatal("no improvement round happened from the bad policy")
	}
	// The optimum must also dominate the heuristic and a spread of fixed
	// policies.
	heur, err := mod.Evaluate(mod.HeuristicPolicy(1.0884))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Gain > heur.Gain+1e-10 {
		t.Fatalf("optimal gain %v worse than heuristic %v", opt.Gain, heur.Gain)
	}
	for _, g := range []float64{0.5, 2.0, 3.0} {
		s, err := mod.Evaluate(mod.HeuristicPolicy(g))
		if err != nil {
			t.Fatal(err)
		}
		if opt.Gain > s.Gain+1e-10 {
			t.Fatalf("optimal gain %v worse than fixed-G(%v) %v", opt.Gain, g, s.Gain)
		}
	}
}

func TestPolicyIterationFromNilStartsAtHeuristic(t *testing.T) {
	mod := mustModel(t, 15, 5, 0.2)
	sol, err := mod.PolicyIteration(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Policy) != 16 || sol.Policy[0] != 0 {
		t.Fatalf("policy shape: %v", sol.Policy)
	}
}

func TestLossFractionMonotoneInK(t *testing.T) {
	prev := 1.1
	for _, k := range []int{10, 20, 40, 80} {
		mod := mustModel(t, k, 10, 0.08)
		sol, err := mod.PolicyIteration(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sol.LossFraction > prev+1e-9 {
			t.Fatalf("K=%d: loss %v not below %v", k, sol.LossFraction, prev)
		}
		if sol.LossFraction < -1e-12 || sol.LossFraction > 1 {
			t.Fatalf("loss fraction %v out of range", sol.LossFraction)
		}
		prev = sol.LossFraction
	}
}

func TestHeuristicPolicyShape(t *testing.T) {
	mod := mustModel(t, 20, 5, 0.25)
	pol := mod.HeuristicPolicy(1.0)
	// 1/0.25 = 4 messages of expected content.
	for i := 1; i <= 20; i++ {
		want := 4
		if i < 4 {
			want = i
		}
		if pol[i] != want {
			t.Fatalf("heuristic a(%d) = %d, want %d", i, pol[i], want)
		}
	}
}

// StationaryDistribution returns the stationary distribution of the
// embedded decision chain under the given policy (π solving π = πP), the
// fraction of *time* spent in each state (duration-weighted), and an
// independent estimate of the gain via the renewal-reward identity
//
//	g = Σ_i π_i·r_i / Σ_i π_i·τ̄_i ,
//
// which TestStationaryDistributionGainIdentity checks against Evaluate — two different computations of
// the same quantity (linear value equations vs. stationary averaging).
func (m *Model) StationaryDistribution(pol Policy) (embedded, timeWeighted []float64, gain float64, err error) {
	if err := m.validatePolicy(pol); err != nil {
		return nil, nil, 0, err
	}
	n := m.K + 1
	// Solve π(P − I) = 0 with Σπ = 1: transpose into (Pᵀ − I)π = 0 and
	// replace the last equation by the normalization.
	A := linalg.NewMatrix(n, n)
	b := make([]float64, n)
	losses := make([]float64, n)
	times := make([]float64, n)
	for i := 0; i <= m.K; i++ {
		tr, err := m.Transitions(i, pol[i])
		if err != nil {
			return nil, nil, 0, err
		}
		losses[i] = tr.ExpLoss
		times[i] = tr.ExpTime
		for j := 0; j <= m.K; j++ {
			A.Add(j, i, tr.NextProb[j]) // column i of Pᵀ rows
		}
	}
	for i := 0; i < n; i++ {
		A.Add(i, i, -1)
	}
	for j := 0; j < n; j++ {
		A.Set(n-1, j, 1) // normalization row
	}
	b[n-1] = 1
	pi, err := linalg.Solve(A, b)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("smdp: stationary solve: %w", err)
	}
	// Clamp tiny negative round-off and renormalize.
	sum := 0.0
	for i := range pi {
		if pi[i] < 0 {
			pi[i] = 0
		}
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	lossRate, timeRate := 0.0, 0.0
	tw := make([]float64, n)
	for i := range pi {
		lossRate += pi[i] * losses[i]
		timeRate += pi[i] * times[i]
		tw[i] = pi[i] * times[i]
	}
	for i := range tw {
		tw[i] /= timeRate
	}
	return pi, tw, lossRate / timeRate, nil
}

func TestStationaryDistributionGainIdentity(t *testing.T) {
	// Renewal-reward via the stationary distribution must equal the gain
	// from the value equations — two independent computations.
	mod := mustModel(t, 25, 8, 0.12)
	for _, pol := range []Policy{mod.HeuristicPolicy(1.0), mod.HeuristicPolicy(2.5)} {
		sol, err := mod.Evaluate(pol)
		if err != nil {
			t.Fatal(err)
		}
		embedded, timeWeighted, gain, err := mod.StationaryDistribution(pol)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gain-sol.Gain) > 1e-9*(1+sol.Gain) {
			t.Fatalf("stationary gain %v vs evaluated %v", gain, sol.Gain)
		}
		for _, pi := range [][]float64{embedded, timeWeighted} {
			sum := 0.0
			for _, p := range pi {
				if p < 0 {
					t.Fatal("negative stationary mass")
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("stationary mass %v", sum)
			}
		}
	}
	// Bad policies rejected.
	if _, _, _, err := mod.StationaryDistribution(Policy{0}); err == nil {
		t.Fatal("short policy accepted")
	}
}

func TestEvaluateRejectsBadPolicies(t *testing.T) {
	mod := mustModel(t, 5, 3, 0.2)
	if _, err := mod.Evaluate(Policy{0, 1, 2}); err == nil {
		t.Fatal("short policy accepted")
	}
	if _, err := mod.Evaluate(Policy{1, 1, 1, 1, 1, 1}); err == nil {
		t.Fatal("non-wait action in state 0 accepted")
	}
	if _, err := mod.Evaluate(Policy{0, 1, 3, 1, 1, 1}); err == nil {
		t.Fatal("infeasible window accepted")
	}
}

func BenchmarkPolicyIterationK60(b *testing.B) {
	mod, err := NewModel(60, 25, 0.04)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mod.PolicyIteration(nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
