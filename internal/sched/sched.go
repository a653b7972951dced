// Package sched analyzes the windowing (scheduling) overhead of the
// time-window protocol and implements the paper's heuristic for policy
// element (2): choose the initial window length to minimize the mean
// windowing time needed to schedule one message (§4).
//
// The central quantity is the number of *wasted* probe slots — idle and
// collision slots, each of duration τ — spent before a successful
// transmission begins.  With Poisson arrivals, a fresh initial window of
// length w holds N ~ Poisson(G) arrivals, G = λ·w, uniformly placed, and
// binary splitting with any side rule (older/newer/random — the count is
// side-symmetric, as Lemma 3 of the paper observes) gives a resolution
// cost that depends only on the content count.  Writing h(n) for the mean
// wasted slots following a collision among n messages:
//
//	h(n) = p₀·(1 + h(n)) + p₁·0 + Σ_{k=2..n} p_k·(1 + h(k)),  p_k = C(n,k)/2ⁿ
//
// (an empty half costs one idle slot and the sibling, known to hold all n,
// is split immediately; an isolated message ends the process; a colliding
// half recurses).  The package computes h(n) exactly, mixes over the
// Poisson content law, optimizes G, and exports the exact slot-count
// distribution for higher-fidelity analytic runs.
package sched

import (
	"fmt"
	"math"

	"windowctl/internal/numerics"
)

// poissonCutoff returns n beyond which the Poisson(G) tail is negligible.
func poissonCutoff(g float64) int {
	n := int(g + 12*math.Sqrt(g+1) + 20)
	return n
}

// HMeans returns h(0..nMax) where h(n) is the expected number of wasted
// slots from the moment a window holding n >= 2 messages collides until a
// message transmission begins.  h(0) and h(1) are 0 by convention (those
// contents never produce the collided state).  It panics if nMax < 2.
func HMeans(nMax int) []float64 {
	if nMax < 2 {
		panic("sched: HMeans needs nMax >= 2")
	}
	h := make([]float64, nMax+1)
	// Binomial row C(n,k)/2^n computed iteratively per n.
	for n := 2; n <= nMax; n++ {
		// p[k] = C(n,k) / 2^n.
		p := binomialRow(n)
		sum := 1 - p[1] // every branch except isolation costs one slot
		for k := 2; k < n; k++ {
			sum += p[k] * h[k]
		}
		selfP := p[0] + p[n] // empty half or full half: same count again
		h[n] = sum / (1 - selfP)
	}
	return h
}

// binomialRow returns C(n,k)/2^n for k = 0..n.
func binomialRow(n int) []float64 {
	p := make([]float64, n+1)
	p[0] = math.Exp2(-float64(n))
	for k := 1; k <= n; k++ {
		p[k] = p[k-1] * float64(n-k+1) / float64(k)
	}
	return p
}

// Overhead summarizes the windowing cost of one fresh initial window with
// Poisson(G) content, per successful transmission.
type Overhead struct {
	// G is the mean number of arrivals per initial window (λ·w).
	G float64
	// ResolutionSlots is the mean number of wasted slots spent inside
	// successful windowing processes (collision resolution), per success.
	ResolutionSlots float64
	// EmptySlots is the mean number of empty initial-window probes per
	// success (a geometric retry: each process is empty w.p. e^(−G)).
	EmptySlots float64
	// SuccessProb is the probability a fresh window yields a transmission.
	SuccessProb float64
}

// TotalSlots is the mean total wasted slots per success (resolution plus
// empty probes) — the renewal-reward scheduling overhead of §4.
func (o Overhead) TotalSlots() float64 { return o.ResolutionSlots + o.EmptySlots }

// Analyze computes the Overhead for mean window content G > 0.
func Analyze(g float64) Overhead {
	if g <= 0 || math.IsNaN(g) || math.IsInf(g, 0) {
		panic(fmt.Sprintf("sched: Analyze with invalid G=%v", g))
	}
	nMax := poissonCutoff(g)
	h := HMeans(max(nMax, 2))
	// Poisson weights.
	pn := math.Exp(-g) // P(N=0)
	resolution := 0.0
	for n := 1; n <= nMax; n++ {
		pn *= g / float64(n)
		if n >= 2 {
			resolution += pn * (1 + h[n])
		}
	}
	succ := -math.Expm1(-g) // 1 − e^(−G)
	return Overhead{
		G:               g,
		ResolutionSlots: resolution / succ,
		EmptySlots:      math.Exp(-g) / succ,
		SuccessProb:     succ,
	}
}

// OptimalG returns the window content G* minimizing the mean total wasted
// slots per scheduled message — the element-(2) heuristic — along with the
// minimal overhead.  The optimum is a pure number (independent of λ, τ and
// M); callers convert it to a window length w* = G*/λ.
func OptimalG() (float64, Overhead) {
	g := numerics.GoldenSection(func(g float64) float64 {
		return Analyze(g).TotalSlots()
	}, 0.05, 8, 1e-6)
	return g, Analyze(g)
}

// ---------------------------------------------------------------------------
// Exact slot-count distributions
// ---------------------------------------------------------------------------

// SlotPMF returns the exact probability mass function of the number of
// wasted slots per scheduled message for window content G, truncated at
// maxSlots (any residual tail mass is folded into the final entry so the
// PMF sums to 1).  Entry j is P(wasted slots = j).
//
// The computation runs the branching recursion on distributions instead of
// means: the self-loop branches (empty or full half) make the slot count a
// geometric mixture, convolved with the recursively known costs of proper
// sub-collisions.
func SlotPMF(g float64, maxSlots int) []float64 {
	return slotPMF(g, maxSlots, true)
}

// ResolutionSlotPMF is SlotPMF conditioned on the fresh window being
// non-empty: empty initial probes are excluded from the count.  This is
// the per-message scheduling law appropriate for the *controlled* protocol
// under element (4), where an empty probe can only occur while no message
// is waiting (the whole unexamined span, at most K long, fits in the
// window) and therefore belongs to server idle time rather than to any
// message's service (it also reproduces the paper's boundary condition
// that scheduling delay vanishes as K → 0).
func ResolutionSlotPMF(g float64, maxSlots int) []float64 {
	return slotPMF(g, maxSlots, false)
}

func slotPMF(g float64, maxSlots int, includeEmpty bool) []float64 {
	if maxSlots < 2 {
		panic("sched: SlotPMF needs maxSlots >= 2")
	}
	if g <= 0 {
		panic("sched: SlotPMF with non-positive G")
	}
	nMax := max(poissonCutoff(g), 2)
	// D[n][j] = P(wasted = j | collided window with n arrivals).
	D := make([][]float64, nMax+1)
	for n := 2; n <= nMax; n++ {
		p := binomialRow(n)
		selfP := p[0] + p[n]
		// Branch distribution (conditional on leaving the self-loop):
		//   isolation (k=1): 0 further slots, prob p[1]/(1−selfP);
		//   sub-collision k in 2..n−1: 1 + D[k], prob p[k]/(1−selfP).
		branch := make([]float64, maxSlots)
		branch[0] = p[1] / (1 - selfP)
		for k := 2; k < n; k++ {
			w := p[k] / (1 - selfP)
			for j := 0; j < maxSlots-1; j++ {
				branch[j+1] += w * D[k][j]
			}
			// The last entry of D[k], shifted past the truncation, folds
			// into the final bin to conserve mass.
			branch[maxSlots-1] += w * D[k][maxSlots-1]
		}
		// Geometric self-loop: each loop costs one slot with prob selfP.
		D[n] = geometricMix(selfP, branch, maxSlots)
		// The collided state has already paid for its collision slot at
		// the *caller* (see below), so D[n] counts only subsequent slots.
	}
	// Fresh window: empty w.p. e^(−G) (a self-loop costing 1 slot when
	// empty probes are counted); otherwise content n=1 succeeds at once,
	// n >= 2 costs 1 collision slot plus D[n].
	p0 := math.Exp(-g)
	pn := p0
	branch := make([]float64, maxSlots)
	// Conditional weights given non-empty.
	norm := 1 - p0
	for n := 1; n <= nMax; n++ {
		pn *= g / float64(n)
		w := pn / norm
		if n == 1 {
			branch[0] += w
			continue
		}
		for j := 0; j < maxSlots-1; j++ {
			branch[j+1] += w * D[n][j]
		}
		branch[maxSlots-1] += w * D[n][maxSlots-1]
	}
	var out []float64
	if includeEmpty {
		out = geometricMix(p0, branch, maxSlots)
	} else {
		out = branch
	}
	// Repair any truncation / Poisson-cutoff rounding so Σ = 1.
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if sum > 0 {
		for j := range out {
			out[j] /= sum
		}
	}
	return out
}

// geometricMix convolves a geometric number of unit-cost self-loops
// (continue probability selfP) with the branch distribution.
func geometricMix(selfP float64, branch []float64, maxSlots int) []float64 {
	out := make([]float64, maxSlots)
	// out[j] = Σ_{l=0..j} selfP^l (1−selfP) · branch[j−l], tail folded.
	pl := 1 - selfP
	for l := 0; l < maxSlots; l++ {
		for j := l; j < maxSlots; j++ {
			out[j] += pl * branch[j-l]
		}
		pl *= selfP
	}
	// Fold the geometric tail (l >= maxSlots) into the last bin.
	tail := math.Pow(selfP, float64(maxSlots))
	out[maxSlots-1] += tail
	return out
}
