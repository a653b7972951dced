package window

import (
	"fmt"
	"math"
)

// RateEstimator estimates the network-wide message arrival rate from the
// protocol's own observations, so that the element-(2) window-length rule
// can be applied without knowing λ′ a priori — every station sees the
// same channel feedback, so every station's estimator stays identical and
// the common-decision property is preserved.
//
// The estimate is an exponentially weighted density: each completed
// windowing process proves some measure of time clear while transmitting
// some number of messages out of it; the ratio is an unbiased density
// sample for the examined region (messages discarded by element (4) died
// in *unexamined* time, which never enters the estimate, so the content
// density the window sizing needs — that of still-alive regions — is what
// is being measured).
type RateEstimator struct {
	rate     float64
	halfLife float64
}

// NewRateEstimator creates an estimator starting from the initial guess;
// halfLife is the examined-time measure over which old observations lose
// half their weight.
func NewRateEstimator(initial, halfLife float64) *RateEstimator {
	if initial <= 0 || halfLife <= 0 {
		panic(fmt.Sprintf("window: invalid estimator parameters (%v, %v)", initial, halfLife))
	}
	return &RateEstimator{rate: initial, halfLife: halfLife}
}

// The estimate is clamped to [MinRate, MaxRate] after every observation
// so a pathological sample can never drive it to zero (infinite windows)
// or to infinity (zero-length windows); within those bounds the estimator
// is the pure exponentially weighted density.
const (
	// MinRate is the smallest value Rate can return.
	MinRate = 1e-12
	// MaxRate is the largest value Rate can return.
	MaxRate = 1e12
)

// Observe folds in one completed windowing process: messages transmitted
// out of the given measure of examined time.  Zero-measure and non-finite
// observations are ignored: a NaN measure would otherwise poison the rate
// permanently (NaN propagates through every later decay step), and an
// infinite measure would zero the decay and collapse the estimate in one
// step.  The updated rate is clamped to [MinRate, MaxRate].
func (e *RateEstimator) Observe(messages int, examinedMeasure float64) {
	if messages < 0 {
		panic("window: negative message count")
	}
	if examinedMeasure <= 0 || math.IsNaN(examinedMeasure) || math.IsInf(examinedMeasure, 0) {
		return
	}
	// The density itself is clamped first: a tiny measure can push it
	// past MaxFloat64, and multiplying that +Inf by an underflowed
	// (1-decay) of 0 would manufacture a NaN.
	density := float64(messages) / examinedMeasure
	if density > MaxRate {
		density = MaxRate
	}
	decay := math.Exp2(-examinedMeasure / e.halfLife)
	rate := decay*e.rate + (1-decay)*density
	// Clamp so window lengths derived from the rate stay finite and
	// positive; an overflow-scale measure (decay underflows to 0, density
	// underflows toward 0) lands on MinRate instead of destroying the
	// estimator.
	switch {
	case math.IsNaN(rate) || rate < MinRate:
		rate = MinRate
	case rate > MaxRate:
		rate = MaxRate
	}
	e.rate = rate
}

// Rate returns the current estimate.
func (e *RateEstimator) Rate() float64 { return e.rate }
