package window

import (
	"fmt"
	"math"
)

// Tracker maintains a station's view of the time axis across windowing
// processes (the paper's figure 2): which intervals are known to contain no
// untransmitted arrivals, and — derived from that — the oldest point that
// may still contain one (t_past).  Under the optimal (controlled) policy
// the cleared region is a single prefix and t_past is one number, exactly
// as Theorem 1's corollary promises; for the uncontrolled baselines the
// cleared region can be fragmented and the Tracker keeps the full interval
// set.
type Tracker struct {
	start    float64
	k        float64
	discards bool
	cleared  IntervalSet
}

// NewTracker creates a Tracker for a protocol starting at the given time
// with constraint k (use math.Inf(1) for unconstrained operation).
// discards enables policy element (4): everything older than k in the past
// is treated as examined.  It panics if k <= 0.
func NewTracker(start, k float64, discards bool) *Tracker {
	if k <= 0 || math.IsNaN(k) {
		panic(fmt.Sprintf("window: invalid time constraint %v", k))
	}
	return &Tracker{start: start, k: k, discards: discards}
}

// Horizon returns the oldest time that still matters at the given instant:
// now − K under element (4), or the protocol start time otherwise.
func (t *Tracker) Horizon(now float64) float64 {
	if !t.discards {
		return t.start
	}
	h := now - t.k
	if h < t.start {
		return t.start
	}
	return h
}

// TPast returns the oldest point at or after the horizon that may contain
// untransmitted arrivals.
func (t *Tracker) TPast(now float64) float64 {
	h := t.Horizon(now)
	if p, ok := t.cleared.OldestUncovered(h, now); ok {
		return p
	}
	// Everything up to now is cleared (possible only immediately at start).
	return now
}

// TNewest returns the most recent unexamined instant (the end of the
// youngest uncovered gap), never exceeding now.
func (t *Tracker) TNewest(now float64) float64 {
	h := t.Horizon(now)
	if u, ok := t.cleared.NewestUncovered(h, now); ok {
		return u
	}
	return now
}

// View assembles the policy View for a decision at the given instant.
func (t *Tracker) View(now, tau, lambda float64) View {
	return View{
		Now:     now,
		TPast:   t.TPast(now),
		TNewest: t.TNewest(now),
		K:       t.k,
		Tau:     tau,
		Lambda:  lambda,
		Cleared: &t.cleared,
	}
}

// Commit records the intervals a finished windowing process proved clear,
// and trims bookkeeping below the horizon.
func (t *Tracker) Commit(now float64, examined []Window) {
	for _, w := range examined {
		t.cleared.Add(w)
	}
	t.cleared.TrimBelow(t.Horizon(now))
}

// PseudoDelay returns the pseudo delay (§3.1/figure 3) of a message that
// arrived at the given time: the measure of time between its arrival and
// now that has not been proven clear — i.e. its delay on the compressed
// pseudo-time axis.  By construction it never exceeds the actual delay
// (Lemma 1), and under the Theorem-1 policy the two are equal for every
// live message (Lemma 2); the simulation tests verify both properties.
func (t *Tracker) PseudoDelay(now, arrival float64) float64 {
	if arrival > now {
		panic(fmt.Sprintf("window: pseudo delay of a future arrival (%v > %v)", arrival, now))
	}
	return t.cleared.UncoveredMeasure(arrival, now)
}

// AppendCleared appends the currently cleared intervals to dst and
// returns the extended slice.
func (t *Tracker) AppendCleared(dst []Window) []Window { return t.cleared.AppendTo(dst) }
