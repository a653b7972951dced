// Package stats provides the output-analysis tools used by the simulation
// harness: numerically stable online moment accumulation (Welford),
// fixed-bin histograms and empirical distributions for waiting times,
// and Student-t confidence intervals across independent replications.
package stats

import (
	"fmt"
	"math"
)

// Accumulator collects online mean and variance using Welford's algorithm,
// which is stable for the long runs (10⁶–10⁸ samples) the simulator emits.
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 with < 2 observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min and Max return the observed extremes (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// String summarizes the accumulator.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		a.n, a.Mean(), a.StdDev(), a.min, a.max)
}

// ---------------------------------------------------------------------------
// Proportion (loss-rate) estimation
// ---------------------------------------------------------------------------

// Proportion counts successes out of trials — the natural estimator for the
// paper's loss fraction — and provides a normal-approximation confidence
// interval.
type Proportion struct {
	Successes, Trials int64
}

// Estimate returns the point estimate (0 when no trials).
func (p *Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// ConfidenceInterval returns a two-sided interval at the given confidence
// level (e.g. 0.95) using the Wilson score, which behaves well for the
// near-zero loss rates of lightly loaded runs.
func (p *Proportion) ConfidenceInterval(level float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 0
	}
	z := NormalQuantile((1 + level) / 2)
	n := float64(p.Trials)
	phat := p.Estimate()
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// ---------------------------------------------------------------------------
// Histogram / empirical CDF
// ---------------------------------------------------------------------------

// Histogram is a fixed-width bin histogram over [0, BinWidth·len(bins)),
// with an overflow bin.  It doubles as an empirical CDF for waiting times.
type Histogram struct {
	BinWidth float64
	bins     []int64
	overflow int64
	total    int64
	sum      float64
}

// NewHistogram creates a histogram with the given bin width and count; it
// panics on non-positive arguments.
func NewHistogram(binWidth float64, bins int) *Histogram {
	if binWidth <= 0 || bins <= 0 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{BinWidth: binWidth, bins: make([]int64, bins)}
}

// Add records a non-negative observation (negative values panic: waiting
// times cannot be negative, so a negative input is a simulator bug we want
// to fail loudly on).
func (h *Histogram) Add(x float64) {
	if x < 0 {
		panic(fmt.Sprintf("stats: negative histogram observation %v", x))
	}
	i := int(x / h.BinWidth)
	if i >= len(h.bins) {
		h.overflow++
	} else {
		h.bins[i]++
	}
	h.total++
	h.sum += x
}

// CopyFrom makes h an exact copy of o, which must have h's shape (it
// panics otherwise).  It never allocates.
func (h *Histogram) CopyFrom(o *Histogram) {
	if !h.SameShape(o) {
		panic("stats: copying between histograms of different shape")
	}
	copy(h.bins, o.bins)
	h.overflow, h.total, h.sum = o.overflow, o.total, o.sum
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.total }

// SameShape reports whether the two histograms have identical bin width
// and bin count, i.e. whether their bins are directly comparable.
func (h *Histogram) SameShape(o *Histogram) bool {
	return h.BinWidth == o.BinWidth && len(h.bins) == len(o.bins)
}

// Clone returns an exact copy of h in fresh storage.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram(h.BinWidth, len(h.bins))
	c.CopyFrom(h)
	return c
}

// Merge folds another histogram's counts into this one; the shapes must
// match (it panics otherwise — merging incompatible bins is a caller
// bug, not a recoverable condition).
func (h *Histogram) Merge(o *Histogram) {
	if !h.SameShape(o) {
		panic("stats: merging histograms of different shape")
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.overflow += o.overflow
	h.total += o.total
	h.sum += o.sum
}

// Mean returns the exact mean of the raw observations (not binned).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// CDF returns the empirical P(X <= x) with sub-bin linear interpolation.
func (h *Histogram) CDF(x float64) float64 {
	if h.total == 0 || x < 0 {
		return 0
	}
	i := int(x / h.BinWidth)
	if i >= len(h.bins) {
		return float64(h.total-h.overflow) / float64(h.total)
	}
	var below int64
	for j := 0; j < i; j++ {
		below += h.bins[j]
	}
	frac := x/h.BinWidth - float64(i)
	return (float64(below) + frac*float64(h.bins[i])) / float64(h.total)
}

// Quantile returns the smallest x with CDF(x) >= q, or +Inf if q exceeds
// the non-overflow mass.
func (h *Histogram) Quantile(q float64) float64 {
	if q <= 0 {
		return 0
	}
	target := q * float64(h.total)
	var cum int64
	for i, c := range h.bins {
		if float64(cum)+float64(c) >= target {
			inBin := (target - float64(cum)) / float64(c)
			return (float64(i) + inBin) * h.BinWidth
		}
		cum += c
	}
	return math.Inf(1)
}

// ---------------------------------------------------------------------------
// Sample-based helpers
// ---------------------------------------------------------------------------

// MeanCI returns the sample mean and its two-sided Student-t confidence
// half-width at the given level for the supplied (independent) samples.
func MeanCI(samples []float64, level float64) (mean, halfWidth float64, err error) {
	n := len(samples)
	if n < 2 {
		return 0, 0, fmt.Errorf("stats: need >= 2 samples for a CI, got %d", n)
	}
	var acc Accumulator
	for _, s := range samples {
		acc.Add(s)
	}
	tq := StudentTQuantile((1+level)/2, n-1)
	return acc.Mean(), tq * acc.StdDev() / math.Sqrt(float64(n)), nil
}

// NormalQuantile returns Φ⁻¹(p) for 0 < p < 1 using the Acklam rational
// approximation (|relative error| < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: NormalQuantile p=%v outside (0,1)", p))
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// StudentTQuantile returns the p-quantile of Student's t with df degrees of
// freedom, computed by Cornish–Fisher expansion around the normal quantile;
// accuracy is better than 1e-3 for df >= 3, which is all a CI needs.
func StudentTQuantile(p float64, df int) float64 {
	if df <= 0 {
		panic("stats: StudentTQuantile with df <= 0")
	}
	z := NormalQuantile(p)
	n := float64(df)
	z3 := z * z * z
	z5 := z3 * z * z
	z7 := z5 * z * z
	g1 := (z3 + z) / 4
	g2 := (5*z5 + 16*z3 + 3*z) / 96
	g3 := (3*z7 + 19*z5 + 17*z3 - 15*z) / 384
	return z + g1/n + g2/(n*n) + g3/(n*n*n)
}
