// Package window implements the time-window group random-access protocol
// of Kurose, Schwartz and Yemini (1983) and the control policies that
// govern it.
//
// The protocol grants transmission rights to every station holding a
// message whose *arrival time* falls inside a commonly agreed window of
// past time.  Ternary channel feedback (idle / success / collision) drives
// a splitting procedure that isolates a single message.  A control policy
// supplies the paper's four decision elements:
//
//	(1) where the initial window starts,
//	(2) how long the initial window is,
//	(3) which part of a split window is enabled first,
//	(4) whether messages older than the constraint K are discarded.
//
// The package is deliberately independent of how arrivals are generated:
// the windowing process is executed against a content oracle (the global
// simulator) or against real channel feedback (the multi-station
// simulator), and is unit-testable against synthetic oracles.
package window

import (
	"fmt"
	"math"
	"sort"
)

// Window is a half-open interval [Start, End) of (absolute) time.
type Window struct {
	Start, End float64
}

// Len returns the window's length.
func (w Window) Len() float64 { return w.End - w.Start }

// Empty reports whether the window has no extent.
func (w Window) Empty() bool { return w.End <= w.Start }

// Contains reports whether t lies in [Start, End).
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// Split cuts the window at Start + frac·Len and returns the older and
// newer parts.  It panics unless 0 < frac < 1.
func (w Window) Split(frac float64) (older, newer Window) {
	if frac <= 0 || frac >= 1 {
		panic(fmt.Sprintf("window: split fraction %v outside (0,1)", frac))
	}
	mid := w.Start + frac*w.Len()
	return Window{w.Start, mid}, Window{mid, w.End}
}

// String formats the window for traces.
func (w Window) String() string { return fmt.Sprintf("[%.4g, %.4g)", w.Start, w.End) }

// Side selects one part of a split window.
type Side int

// Side values.
const (
	// Older selects the part containing earlier arrival times.
	Older Side = iota
	// Newer selects the part containing later arrival times.
	Newer
)

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == Older {
		return "older"
	}
	return "newer"
}

// ---------------------------------------------------------------------------
// IntervalSet
// ---------------------------------------------------------------------------

// IntervalSet is a set of disjoint half-open intervals of time, kept sorted
// and coalesced.  The protocol uses it to record the intervals *known to
// contain no untransmitted arrivals* (the shaded regions of the paper's
// figure 2).  Its complement — within the horizon — is the region that may
// still contain untransmitted messages.
type IntervalSet struct {
	iv []Window // sorted, disjoint, non-empty
}

// Add inserts [w.Start, w.End), coalescing with any overlapping or
// adjacent members.  Empty windows are ignored.  The insertion is
// copy-based and in place: once the backing array has grown to the
// set's working size, Add never allocates — the simulation hot path
// (Tracker.Commit after every windowing process) depends on this.
func (s *IntervalSet) Add(w Window) {
	if w.Empty() {
		return
	}
	// Find insertion point: the first interval whose End >= w.Start.
	i, n := 0, len(s.iv)
	for i < n {
		mid := int(uint(i+n) >> 1)
		if s.iv[mid].End < w.Start {
			i = mid + 1
		} else {
			n = mid
		}
	}
	j := i
	lo, hi := w.Start, w.End
	for j < len(s.iv) && s.iv[j].Start <= hi {
		if s.iv[j].Start < lo {
			lo = s.iv[j].Start
		}
		if s.iv[j].End > hi {
			hi = s.iv[j].End
		}
		j++
	}
	merged := Window{lo, hi}
	if j == i {
		// Pure insertion: open one slot at i.
		s.iv = append(s.iv, Window{})
		copy(s.iv[i+1:], s.iv[i:])
		s.iv[i] = merged
		return
	}
	// Replace the merged run [i, j) with the single coalesced interval.
	s.iv[i] = merged
	if j < len(s.iv) {
		copy(s.iv[i+1:], s.iv[j:])
	}
	s.iv = s.iv[:len(s.iv)-(j-i)+1]
}

// Covers reports whether t lies inside some member interval.
func (s *IntervalSet) Covers(t float64) bool {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].End > t })
	return i < len(s.iv) && s.iv[i].Contains(t)
}

// OldestUncovered returns the smallest t in [lo, hi) not covered by the
// set, and ok=false if the whole range is covered.
func (s *IntervalSet) OldestUncovered(lo, hi float64) (float64, bool) {
	if hi <= lo {
		return 0, false
	}
	t := lo
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].End > t })
	for i < len(s.iv) && s.iv[i].Start <= t {
		t = s.iv[i].End
		i++
	}
	if t >= hi {
		return 0, false
	}
	return t, true
}

// NewestUncovered returns the supremum u <= hi such that time just below u
// is uncovered within [lo, hi), and ok=false if the whole range is covered.
// It is the "most recent unexamined time", used by LCFS-style policies.
func (s *IntervalSet) NewestUncovered(lo, hi float64) (float64, bool) {
	if hi <= lo {
		return 0, false
	}
	u := hi
	for i := len(s.iv) - 1; i >= 0; i-- {
		w := s.iv[i]
		if w.End < u {
			break // uncovered gap (w.End, u) exists
		}
		if w.Start < u {
			u = w.Start // w covers right up to u; slide down
		}
	}
	if u <= lo {
		return 0, false
	}
	return u, true
}

// TrimBelow removes all covered mass below t (a horizon advance); interval
// parts above t are retained.  In place and allocation-free: the surviving
// suffix is shifted down over the dropped prefix.
func (s *IntervalSet) TrimBelow(t float64) {
	// Binary search for the first interval with End > t; everything below
	// is dropped wholesale.
	cut, n := 0, len(s.iv)
	for cut < n {
		mid := int(uint(cut+n) >> 1)
		if s.iv[mid].End <= t {
			cut = mid + 1
		} else {
			n = mid
		}
	}
	if cut == len(s.iv) {
		s.iv = s.iv[:0]
		return
	}
	if s.iv[cut].Start < t {
		s.iv[cut].Start = t
	}
	if cut > 0 {
		m := copy(s.iv, s.iv[cut:])
		s.iv = s.iv[:m]
	}
}

// UncoveredMeasure returns the total uncovered length within [lo, hi).
func (s *IntervalSet) UncoveredMeasure(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	covered := 0.0
	for _, w := range s.iv {
		a, b := math.Max(w.Start, lo), math.Min(w.End, hi)
		if b > a {
			covered += b - a
		}
	}
	return (hi - lo) - covered
}

// StartForUncoveredMeasure returns the largest s in [lo, hi] such that the
// uncovered measure of [s, hi) is at least measure — i.e. the start of a
// window, anchored at hi, containing the newest `measure` worth of
// unexamined time (cleared gaps are skipped over, the pseudo-time view of
// §3.1).  If less than `measure` uncovered time is available, lo is
// returned.
func (s *IntervalSet) StartForUncoveredMeasure(lo, hi, measure float64) float64 {
	if hi <= lo || measure <= 0 {
		return hi
	}
	need := measure
	cur := hi
	for i := len(s.iv) - 1; i >= 0; i-- {
		w := s.iv[i]
		if w.End >= cur {
			// Interval touches or lies above the cursor: slide below it.
			if w.Start < cur {
				cur = w.Start
			}
			if cur <= lo {
				return lo
			}
			continue
		}
		// Uncovered gap (max(w.End, lo), cur).
		gapLo := w.End
		if gapLo < lo {
			gapLo = lo
		}
		if gap := cur - gapLo; gap >= need {
			return cur - need
		} else {
			need -= gap
		}
		cur = w.Start
		if cur <= lo {
			return lo
		}
	}
	if gap := cur - lo; gap >= need {
		return cur - need
	}
	return lo
}

// AppendTo appends the member intervals to dst and returns the extended
// slice, so callers can reuse a buffer across calls.  The appended
// windows are values; the set keeps ownership of nothing in dst.
func (s *IntervalSet) AppendTo(dst []Window) []Window {
	return append(dst, s.iv...)
}

// Len returns the number of disjoint member intervals.
func (s *IntervalSet) Len() int { return len(s.iv) }
