package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule).  xs need not be sorted; it is
// not modified.  An empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tailPercentiles are the percentiles a timing may be reported at.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 50}

// tailPercentile returns the highest percentile of tailPercentiles that
// has at least ten of n samples beyond it, or 0 when even the median has
// fewer than ten.  A percentile with fewer samples beyond it than that is
// decided by a handful of outliers and does not repeat between runs.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		// The tolerance absorbs the rounding of 100 − p.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// polledCurve is a cumulative count sampled at known instants and read
// between them by linear interpolation: windowd's counters as the poller
// sees them, and the client's sent count at each tick's due time.
// Reading both curves the same way keeps the estimate unbiased when a
// whole batch leaves at one instant.
type polledCurve struct {
	t []float64
	n []int64
}

func (c *polledCurve) add(t float64, cum int64) {
	c.t = append(c.t, t)
	c.n = append(c.n, cum)
}

// at returns the interpolated instant at which the curve reaches k, and
// false when no poll saw it reach k.
func (c *polledCurve) at(k int64) (float64, bool) {
	j := sort.Search(len(c.n), func(i int) bool { return c.n[i] >= k })
	if j == len(c.n) {
		return 0, false
	}
	if j == 0 || c.n[j] == c.n[j-1] {
		return c.t[j], true
	}
	f := float64(k-c.n[j-1]) / float64(c.n[j]-c.n[j-1])
	return c.t[j-1] + f*(c.t[j]-c.t[j-1]), true
}

// countAt returns the interpolated value of the curve at instant t,
// clamped to the first and last polls.
func (c *polledCurve) countAt(t float64) int64 {
	j := sort.Search(len(c.t), func(i int) bool { return c.t[i] >= t })
	switch {
	case len(c.t) == 0:
		return 0
	case j == 0:
		return c.n[0]
	case j == len(c.t):
		return c.n[len(c.n)-1]
	}
	f := (t - c.t[j-1]) / (c.t[j] - c.t[j-1])
	return c.n[j-1] + int64(f*float64(c.n[j]-c.n[j-1]))
}

// curveDelays estimates per-message delays between two cumulative
// curves: message k entered at the instant the earlier curve reached k
// and left when the later one did, which is exact for a FIFO system and
// the mean-preserving horizontal distance otherwise.  Messages lo+1..hi
// are sampled at about samples evenly spaced indices, stopping at the
// first one the later curve has not reached; the delays (in the curves'
// time unit) come back with their entry instants.
func curveDelays(in, out *polledCurve, lo, hi int64, samples int) (entry, delay []float64) {
	if hi <= lo || samples <= 0 {
		return nil, nil
	}
	stride := (hi - lo) / int64(samples)
	if stride < 1 {
		stride = 1
	}
	for k := lo + 1; k <= hi; k += stride {
		t0, ok := in.at(k)
		if !ok {
			break
		}
		t1, ok := out.at(k)
		if !ok {
			break
		}
		entry = append(entry, t0)
		delay = append(delay, t1-t0)
	}
	return entry, delay
}

// windowedTail splits delays into consecutive windows of the given
// length by entry instant, takes each window's q-quantile, and returns
// the median over windows: a tail figure that one stall on a shared
// machine cannot move by itself.  Windows with fewer than minN samples
// are skipped; NaN when none qualifies.
func windowedTail(entry, delay []float64, window, q float64, minN int) float64 {
	if len(entry) == 0 {
		return math.NaN()
	}
	var tails, cur []float64
	start := entry[0]
	flush := func() {
		if len(cur) >= minN {
			tails = append(tails, quantile(cur, q))
		}
		cur = cur[:0]
	}
	for i, t := range entry {
		if t-start >= window {
			flush()
			start = t
		}
		cur = append(cur, delay[i])
	}
	flush()
	return median(tails)
}
