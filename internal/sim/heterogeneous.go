package sim

import (
	"fmt"

	"windowctl/internal/stats"
	"windowctl/internal/window"
)

// Transform perturbs a station's *membership test*: the station transmits
// in a slot when it holds a pending message inside the transformed window
// rather than the commonly agreed one.  It models the §5 extensions the
// paper leaves as future work:
//
//   - station priority via per-station window sizes (a high-priority
//     station stretches its membership window and therefore joins more
//     probes, getting served earlier), and
//   - asynchronous operation (a clock-skewed station sees every window
//     shifted by its skew; a guard band shrinks the window symmetrically
//     to reduce boundary disagreements).
//
// The base protocol state machine stays common — the transform only
// changes who transmits — so this models small per-station perturbations
// of a synchronized system, the regime Molle's asynchronous analysis
// addresses.
type Transform func(w window.Window) window.Window

// PriorityStretch scales the membership window's length by factor around
// its newest edge: factor > 1 raises the station's priority (it answers
// probes for a wider slice of the past), factor < 1 lowers it.  Below the
// length floor the station answers truthfully — without the floor, a
// stretched station can answer *every* probe of a contracting split
// sequence whose true occupant keeps answering too, and collision
// resolution livelocks (a genuine failure mode of naive per-station window
// sizes, worth knowing about when exploring the paper's §5 suggestion).
func PriorityStretch(factor, floor float64) Transform {
	if factor <= 0 {
		panic("sim: PriorityStretch needs a positive factor")
	}
	if floor <= 0 {
		panic("sim: PriorityStretch needs a positive length floor")
	}
	return func(w window.Window) window.Window {
		if w.Len() < floor {
			return w
		}
		return window.Window{Start: w.End - factor*w.Len(), End: w.End}
	}
}

// ClockSkew shifts the membership window by skew (the station's clock
// error) and symmetrically shrinks it by guard on both sides (Molle-style
// guard band).  A message near a window boundary may then be missed by
// its own station or claimed in the wrong slot — exactly the failure mode
// that makes asynchronous operation hard.
func ClockSkew(skew, guard float64) Transform {
	if guard < 0 {
		panic("sim: negative guard band")
	}
	return func(w window.Window) window.Window {
		return window.Window{Start: w.Start + skew + guard, End: w.End + skew - guard}
	}
}

// HeterogeneousConfig configures a multi-station run in which stations
// apply per-station membership transforms.
type HeterogeneousConfig struct {
	Config
	// Transforms gives one Transform per station (its length fixes the
	// station count; nil entries mean identity).
	Transforms []Transform
}

// StationReport carries per-station outcome counts.
type StationReport struct {
	// Offered counts this station's measured decided messages (the sum
	// of the four outcomes below).  Measured messages still pending at
	// the end of the run are censored and appear only in the aggregate
	// Report, so the per-station values can sum to less than
	// Report.Offered.
	Offered int64
	// AcceptedInTime, LostSender, LostLate and LostPending partition the
	// decided messages as in Report.
	AcceptedInTime, LostSender, LostLate, LostPending int64
	// TrueWait accumulates this station's transmitted-message waits.
	TrueWait stats.Accumulator
}

// Loss returns the station's measured loss fraction.
func (s StationReport) Loss() float64 {
	d := s.AcceptedInTime + s.LostSender + s.LostLate + s.LostPending
	if d == 0 {
		return 0
	}
	return float64(s.LostSender+s.LostLate+s.LostPending) / float64(d)
}

// HeterogeneousReport extends Report with per-station breakdowns.
type HeterogeneousReport struct {
	Report
	// Stations holds one report per station.
	Stations []StationReport
}

// RunHeterogeneous simulates stations whose membership tests are
// perturbed by per-station Transforms.  The common protocol state machine
// (window agreement, splitting, t_past) is driven by true channel
// feedback, as in RunMultiStation; a perturbed station may fail to answer
// a probe containing its message (the message region is then marked clear
// by everyone and the message strands until the end of the run) or answer
// a probe it should not (extra collisions).  Stranded messages are
// counted lost when their age exceeds K.  The run is a multi-station run
// on the per-station engine, so Faults and a Collector are honoured as
// there; the global simulator's TxLengths, RateEstimator and
// ExternalArrivals are not modelled, and setting any of them is an error.
// With every transform nil the report equals RunMultiStation's.  Large
// runs call different stations' Transforms concurrently, so a Transform
// must be safe for that (the ones this package builds are pure).
func RunHeterogeneous(cfg HeterogeneousConfig) (HeterogeneousReport, error) {
	if err := cfg.validate(); err != nil {
		return HeterogeneousReport{}, err
	}
	if err := cfg.rejectGlobalOnly(); err != nil {
		return HeterogeneousReport{}, err
	}
	n := len(cfg.Transforms)
	if n < 1 {
		return HeterogeneousReport{}, fmt.Errorf("sim: need at least one transform/station")
	}
	return runMultiDense(MultiConfig{Config: cfg.Config, Stations: n}, cfg.Transforms)
}
