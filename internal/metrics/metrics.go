// Package metrics is the slot-level observability layer of the
// simulators: a Collector interface the engines report protocol events
// to, a zero-allocation no-op default, and a concrete SlotMetrics
// implementation that turns every instrumented run into a self-auditing
// experiment.
//
// The counters are exactly the channel-level quantities the paper
// reasons about directly: idle / success / collision slots (the
// windowing overhead h(n) of §3.2 is their per-message expectation),
// element-(4) sender discards (§4.2's explanation for the controlled
// protocol's advantage), busy time and therefore utilization (§4.2's
// "the channel is never used for the transmission of messages which are
// lost"), and a fixed-bin streaming histogram of accepted waiting times
// (the empirical counterpart of eq. 4.4's conditional waiting-time law).
//
// Two conservation invariants tie the counters to the run they came
// from, making the collector double as correctness tooling:
//
//	arrivals == transmissions + discards + resident        (messages)
//	idle + busy + collision channel time == elapsed time   (slot time)
//
// The simulators check both after every instrumented run through the
// ConservationChecker interface and fail loudly on violation.
//
// SlotMetrics counts *every* event of a run, warmup included — it is
// channel-level accounting, not the warmup-filtered statistical view of
// sim.Report.  With a zero warmup the two views coincide and
// SlotMetrics.Loss equals Report.Loss exactly (asserted by the sim
// package's agreement tests).
//
// A SlotMetrics is not safe for concurrent use; give each concurrent
// run its own collector (as sim.Figure7Panels does) and Merge the
// results afterwards if aggregate numbers are wanted.
package metrics

import (
	"expvar"
	"fmt"
	"math"
	"strings"

	"windowctl/internal/stats"
)

// SlotOutcome classifies one probe slot of the protocol, mirroring the
// ternary channel feedback.
type SlotOutcome int

// SlotOutcome values.
const (
	// SlotIdle: no station transmitted; the slot cost τ.
	SlotIdle SlotOutcome = iota
	// SlotSuccess: exactly one station transmitted; the slot carried a
	// message and cost the transmission time.
	SlotSuccess
	// SlotCollision: two or more stations transmitted; the slot cost τ.
	SlotCollision
)

// String implements fmt.Stringer.
func (o SlotOutcome) String() string {
	switch o {
	case SlotIdle:
		return "idle"
	case SlotSuccess:
		return "success"
	case SlotCollision:
		return "collision"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// FaultKind classifies one injected feedback fault (see internal/fault):
// the three ways imperfect channel sensing can corrupt the ternary
// feedback a station perceives.
type FaultKind int

// FaultKind values.
const (
	// FaultErasure: a station read the slot as noise and could not
	// classify it at all.
	FaultErasure FaultKind = iota
	// FaultFalseCollision: an idle or success slot was misread as a
	// collision.
	FaultFalseCollision
	// FaultMissedCollision: a collision was misread as a success.
	FaultMissedCollision
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultErasure:
		return "erasure"
	case FaultFalseCollision:
		return "false-collision"
	case FaultMissedCollision:
		return "missed-collision"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Collector receives protocol events from the simulation engines.  The
// engines call it unconditionally on their hot paths, so implementations
// must be cheap and must not retain the arguments; Nop is the
// zero-overhead default, SlotMetrics the standard accounting one.
type Collector interface {
	// RecordArrivals reports n new message arrivals (warmup included).
	RecordArrivals(n int64)
	// RecordSlots reports n consecutive probe slots with the same
	// outcome that together occupied the channel for channelTime.  The
	// engines batch where they can (the idle fast-forward reports a whole
	// skipped stretch in one call).
	RecordSlots(o SlotOutcome, n int64, channelTime float64)
	// RecordSplit reports one window split during collision resolution.
	RecordSplit()
	// RecordDiscards reports n messages discarded at the sender under
	// policy element (4).
	RecordDiscards(n int64)
	// RecordTransmission reports one completed message transmission with
	// its true waiting time; accepted means the wait met the constraint.
	RecordTransmission(wait float64, accepted bool)
	// RecordEndPending reports the end-of-run classification of measured
	// messages still pending: lost (older than K, can only be lost) and
	// censored (age <= K, fate unknown).
	RecordEndPending(lost, censored int64)
}

// Nop is the zero-allocation no-op Collector: every method is an empty
// value-receiver call, so storing it in a Collector interface does not
// allocate and calling it does no work.
type Nop struct{}

// RecordArrivals implements Collector.
func (Nop) RecordArrivals(int64) {}

// RecordSlots implements Collector.
func (Nop) RecordSlots(SlotOutcome, int64, float64) {}

// RecordSplit implements Collector.
func (Nop) RecordSplit() {}

// RecordDiscards implements Collector.
func (Nop) RecordDiscards(int64) {}

// RecordTransmission implements Collector.
func (Nop) RecordTransmission(float64, bool) {}

// RecordEndPending implements Collector.
func (Nop) RecordEndPending(int64, int64) {}

// OrNop returns c, or the no-op collector when c is nil, so engines can
// call through an always-non-nil Collector without branching per event.
func OrNop(c Collector) Collector {
	if c == nil {
		return Nop{}
	}
	return c
}

// FaultObserver is the optional Collector extension for imperfect-feedback
// runs (internal/fault): collectors implementing it additionally receive
// every injected feedback fault, every triggered protocol recovery, and
// every detected inter-station desynchronization.  Plain six-method
// Collectors keep working — the engines fall back to a no-op observer.
type FaultObserver interface {
	// RecordFault reports one injected feedback fault of the given kind.
	RecordFault(k FaultKind)
	// RecordRecovery reports one triggered resolver recovery: a windowing
	// process that aborted to a bounded re-enable of its window instead of
	// completing, because its feedback view became untrustworthy.
	RecordRecovery()
	// RecordDesync reports one detected desynchronization event: stations
	// whose per-station feedback perceptions drove their resolvers into
	// disagreeing protocol states.
	RecordDesync()
}

// RecordFault implements FaultObserver.
func (Nop) RecordFault(FaultKind) {}

// RecordRecovery implements FaultObserver.
func (Nop) RecordRecovery() {}

// RecordDesync implements FaultObserver.
func (Nop) RecordDesync() {}

// FaultObserverOrNop returns c's FaultObserver view, or a no-op observer
// when c is nil or does not implement the extension, so engines can call
// through an always-non-nil FaultObserver without branching per event.
func FaultObserverOrNop(c Collector) FaultObserver {
	if fo, ok := c.(FaultObserver); ok {
		return fo
	}
	return Nop{}
}

// Checkpoint snapshots the conservation-relevant counters of a
// SlotMetrics, delimiting the events of one run when a collector is
// reused across runs (e.g. cmd/sweep aggregating a whole grid).
type Checkpoint struct {
	arrivals, transmissions, discards int64
	channelTime                       float64
}

// ConservationChecker is implemented by collectors whose counters can be
// verified against the run they were recorded from.  The simulators
// check every instrumented run whose collector implements it and fail
// the run on violation; SlotMetrics implements it.
type ConservationChecker interface {
	// Checkpoint snapshots the counters before a run starts.
	Checkpoint() Checkpoint
	// CheckConservation verifies the invariants over the events recorded
	// since the checkpoint: resident is the number of messages still
	// pending when the run ended, elapsed the channel time the run
	// accounted for.
	CheckConservation(since Checkpoint, resident int64, elapsed float64) error
}

// SlotMetrics is the standard Collector: plain counters plus an optional
// waiting-time histogram, all exported for direct reading.  The zero
// value is usable (no histogram); NewSlotMetrics attaches one.
type SlotMetrics struct {
	// Arrivals counts every message arrival reported to the collector.
	Arrivals int64
	// IdleSlots, SuccessSlots and CollisionSlots count probe slots by
	// outcome.
	IdleSlots, SuccessSlots, CollisionSlots int64
	// Splits counts window splits during collision resolution; the
	// per-transmission expectation is the overhead the paper's h(n)
	// recursion prices into the service time.
	Splits int64
	// Discards counts messages dropped at the sender (element (4)).
	Discards int64
	// Transmissions, Accepted and Late count completed transmissions and
	// their constraint outcome (Accepted + Late == Transmissions).
	Transmissions, Accepted, Late int64
	// PendingLost and PendingCensored classify the measured messages
	// still pending at the end of the run.
	PendingLost, PendingCensored int64
	// Erasures, FalseCollisions and MissedCollisions count injected
	// feedback faults by kind (imperfect-feedback runs; zero otherwise).
	Erasures, FalseCollisions, MissedCollisions int64
	// Recoveries counts windowing processes that aborted to a bounded
	// re-enable of their window after untrustworthy feedback.
	Recoveries int64
	// Desyncs counts detected inter-station desynchronization events
	// (per-station faults only).
	Desyncs int64
	// IdleTime, BusyTime and CollisionTime partition the accounted
	// channel time by slot outcome.
	IdleTime, BusyTime, CollisionTime float64
	// WaitHist, when non-nil, is the fixed-bin streaming histogram of
	// *accepted* waiting times (bin width = τ by convention).
	WaitHist *stats.Histogram
}

// NewSlotMetrics creates a SlotMetrics whose waiting-time histogram has
// the given bin width and bin count (use binWidth = τ and enough bins to
// cover K, as the simulators' own Report histogram does).  It panics on
// non-positive arguments.
func NewSlotMetrics(binWidth float64, bins int) *SlotMetrics {
	return &SlotMetrics{WaitHist: stats.NewHistogram(binWidth, bins)}
}

// RecordArrivals implements Collector.
func (m *SlotMetrics) RecordArrivals(n int64) { m.Arrivals += n }

// RecordSlots implements Collector.
func (m *SlotMetrics) RecordSlots(o SlotOutcome, n int64, channelTime float64) {
	switch o {
	case SlotIdle:
		m.IdleSlots += n
		m.IdleTime += channelTime
	case SlotSuccess:
		m.SuccessSlots += n
		m.BusyTime += channelTime
	case SlotCollision:
		m.CollisionSlots += n
		m.CollisionTime += channelTime
	default:
		panic(fmt.Sprintf("metrics: unknown slot outcome %d", int(o)))
	}
}

// RecordSplit implements Collector.
func (m *SlotMetrics) RecordSplit() { m.Splits++ }

// RecordDiscards implements Collector.
func (m *SlotMetrics) RecordDiscards(n int64) { m.Discards += n }

// RecordTransmission implements Collector.
func (m *SlotMetrics) RecordTransmission(wait float64, accepted bool) {
	m.Transmissions++
	if accepted {
		m.Accepted++
		if m.WaitHist != nil {
			m.WaitHist.Add(wait)
		}
	} else {
		m.Late++
	}
}

// RecordEndPending implements Collector.
func (m *SlotMetrics) RecordEndPending(lost, censored int64) {
	m.PendingLost += lost
	m.PendingCensored += censored
}

// RecordFault implements FaultObserver.
func (m *SlotMetrics) RecordFault(k FaultKind) {
	switch k {
	case FaultErasure:
		m.Erasures++
	case FaultFalseCollision:
		m.FalseCollisions++
	case FaultMissedCollision:
		m.MissedCollisions++
	default:
		panic(fmt.Sprintf("metrics: unknown fault kind %d", int(k)))
	}
}

// RecordRecovery implements FaultObserver.
func (m *SlotMetrics) RecordRecovery() { m.Recoveries++ }

// RecordDesync implements FaultObserver.
func (m *SlotMetrics) RecordDesync() { m.Desyncs++ }

// Faults returns the total number of injected feedback faults.
func (m *SlotMetrics) Faults() int64 { return m.Erasures + m.FalseCollisions + m.MissedCollisions }

// ElapsedTime returns the total channel time accounted for.
func (m *SlotMetrics) ElapsedTime() float64 { return m.IdleTime + m.BusyTime + m.CollisionTime }

// Utilization returns the fraction of accounted channel time spent
// carrying successful transmissions (0 when nothing is accounted).
func (m *SlotMetrics) Utilization() float64 {
	t := m.ElapsedTime()
	if t == 0 {
		return 0
	}
	return m.BusyTime / t
}

// Lost returns the messages known lost from the counters alone: sender
// discards, late transmissions, and end-of-run pending messages already
// older than K.
func (m *SlotMetrics) Lost() int64 { return m.Discards + m.Late + m.PendingLost }

// Decided returns the messages with a known fate.
func (m *SlotMetrics) Decided() int64 { return m.Accepted + m.Lost() }

// Loss returns the loss fraction computed from the counters (0 when
// nothing was decided).  For a zero-warmup run it equals the
// corresponding sim.Report.Loss exactly.
func (m *SlotMetrics) Loss() float64 {
	d := m.Decided()
	if d == 0 {
		return 0
	}
	return float64(m.Lost()) / float64(d)
}

// DiscardFraction returns the fraction of arrivals discarded at the
// sender under element (4) — the §4.2 discard rate.
func (m *SlotMetrics) DiscardFraction() float64 {
	if m.Arrivals == 0 {
		return 0
	}
	return float64(m.Discards) / float64(m.Arrivals)
}

// Checkpoint implements ConservationChecker.
func (m *SlotMetrics) Checkpoint() Checkpoint {
	return Checkpoint{
		arrivals:      m.Arrivals,
		transmissions: m.Transmissions,
		discards:      m.Discards,
		channelTime:   m.ElapsedTime(),
	}
}

// CheckConservation implements ConservationChecker: over the events
// recorded since the checkpoint it verifies
//
//	arrivals == transmissions + discards + resident
//
// exactly, and
//
//	idle + busy + collision channel time == elapsed
//
// within a small relative tolerance (the two sides accumulate the same
// slot durations in different orders).
func (m *SlotMetrics) CheckConservation(since Checkpoint, resident int64, elapsed float64) error {
	arrivals := m.Arrivals - since.arrivals
	transmissions := m.Transmissions - since.transmissions
	discards := m.Discards - since.discards
	if arrivals != transmissions+discards+resident {
		return fmt.Errorf("metrics: message conservation violated: %d arrivals != %d transmissions + %d discards + %d resident",
			arrivals, transmissions, discards, resident)
	}
	accounted := m.ElapsedTime() - since.channelTime
	tol := 1e-6 * (1 + math.Abs(elapsed))
	if math.Abs(accounted-elapsed) > tol {
		return fmt.Errorf("metrics: slot-time conservation violated: accounted %.9g != elapsed %.9g (|Δ|=%.3g > tol %.3g)",
			accounted, elapsed, math.Abs(accounted-elapsed), tol)
	}
	return nil
}

// Merge folds another collector's counts into this one (for aggregating
// per-run collectors).  Histograms are merged only when both exist with
// identical shape; otherwise the merged histogram is dropped, since bins
// from different (τ, K) runs are not comparable.
func (m *SlotMetrics) Merge(o *SlotMetrics) {
	m.Arrivals += o.Arrivals
	m.IdleSlots += o.IdleSlots
	m.SuccessSlots += o.SuccessSlots
	m.CollisionSlots += o.CollisionSlots
	m.Splits += o.Splits
	m.Discards += o.Discards
	m.Transmissions += o.Transmissions
	m.Accepted += o.Accepted
	m.Late += o.Late
	m.PendingLost += o.PendingLost
	m.PendingCensored += o.PendingCensored
	m.Erasures += o.Erasures
	m.FalseCollisions += o.FalseCollisions
	m.MissedCollisions += o.MissedCollisions
	m.Recoveries += o.Recoveries
	m.Desyncs += o.Desyncs
	m.IdleTime += o.IdleTime
	m.BusyTime += o.BusyTime
	m.CollisionTime += o.CollisionTime
	if m.WaitHist != nil && o.WaitHist != nil && m.WaitHist.SameShape(o.WaitHist) {
		m.WaitHist.Merge(o.WaitHist)
	} else {
		m.WaitHist = nil
	}
}

// CopyTo makes dst an exact copy of m, histogram included.  dst keeps
// its own histogram storage, replacing it only when its shape differs
// from m's, so copying into a dst that has been filled from m before
// does not allocate.
func (m *SlotMetrics) CopyTo(dst *SlotMetrics) {
	h := dst.WaitHist
	*dst = *m
	switch {
	case m.WaitHist == nil:
	case h == nil || !h.SameShape(m.WaitHist):
		dst.WaitHist = m.WaitHist.Clone()
	default:
		h.CopyFrom(m.WaitHist)
		dst.WaitHist = h
	}
}

// WaitQuantile returns the q-quantile of the accepted waiting times
// (+Inf when q falls in the histogram's overflow region, 0 when the
// collector has no histogram or no observations).
func (m *SlotMetrics) WaitQuantile(q float64) float64 {
	if m.WaitHist == nil || m.WaitHist.N() == 0 {
		return 0
	}
	return m.WaitHist.Quantile(q)
}

// Snapshot is a flat, JSON-ready view of the counters plus the derived
// rates; it is what the expvar exposition publishes.
type Snapshot struct {
	Arrivals         int64   `json:"arrivals"`
	IdleSlots        int64   `json:"idle_slots"`
	SuccessSlots     int64   `json:"success_slots"`
	CollisionSlots   int64   `json:"collision_slots"`
	Splits           int64   `json:"splits"`
	Discards         int64   `json:"discards"`
	Transmissions    int64   `json:"transmissions"`
	Accepted         int64   `json:"accepted"`
	Late             int64   `json:"late"`
	PendingLost      int64   `json:"pending_lost"`
	PendingCensored  int64   `json:"pending_censored"`
	Erasures         int64   `json:"erasures"`
	FalseCollisions  int64   `json:"false_collisions"`
	MissedCollisions int64   `json:"missed_collisions"`
	Recoveries       int64   `json:"recoveries"`
	Desyncs          int64   `json:"desyncs"`
	IdleTime         float64 `json:"idle_time"`
	BusyTime         float64 `json:"busy_time"`
	CollisionTime    float64 `json:"collision_time"`
	Utilization      float64 `json:"utilization"`
	Loss             float64 `json:"loss"`
	DiscardFraction  float64 `json:"discard_fraction"`
	WaitCount        int64   `json:"wait_count"`
	WaitMean         float64 `json:"wait_mean"`
}

// Snapshot returns the current counter values and derived rates.
func (m *SlotMetrics) Snapshot() Snapshot {
	s := Snapshot{
		Arrivals:         m.Arrivals,
		IdleSlots:        m.IdleSlots,
		SuccessSlots:     m.SuccessSlots,
		CollisionSlots:   m.CollisionSlots,
		Splits:           m.Splits,
		Discards:         m.Discards,
		Transmissions:    m.Transmissions,
		Accepted:         m.Accepted,
		Late:             m.Late,
		PendingLost:      m.PendingLost,
		PendingCensored:  m.PendingCensored,
		Erasures:         m.Erasures,
		FalseCollisions:  m.FalseCollisions,
		MissedCollisions: m.MissedCollisions,
		Recoveries:       m.Recoveries,
		Desyncs:          m.Desyncs,
		IdleTime:         m.IdleTime,
		BusyTime:         m.BusyTime,
		CollisionTime:    m.CollisionTime,
		Utilization:      m.Utilization(),
		Loss:             m.Loss(),
		DiscardFraction:  m.DiscardFraction(),
	}
	if m.WaitHist != nil {
		s.WaitCount = m.WaitHist.N()
		s.WaitMean = m.WaitHist.Mean()
	}
	return s
}

// Var returns the collector as an expvar variable rendering the current
// Snapshot as JSON.
func (m *SlotMetrics) Var() expvar.Var {
	return expvar.Func(func() any { return m.Snapshot() })
}

// Format renders the counters as an aligned, human-readable text block —
// the -metrics exposition of the commands.
func (m *SlotMetrics) Format() string {
	var b strings.Builder
	totalSlots := m.IdleSlots + m.SuccessSlots + m.CollisionSlots
	fmt.Fprintf(&b, "slots         idle=%d success=%d collision=%d (total=%d, splits=%d)\n",
		m.IdleSlots, m.SuccessSlots, m.CollisionSlots, totalSlots, m.Splits)
	fmt.Fprintf(&b, "channel time  idle=%.6g busy=%.6g collision=%.6g (elapsed=%.6g)\n",
		m.IdleTime, m.BusyTime, m.CollisionTime, m.ElapsedTime())
	fmt.Fprintf(&b, "utilization   %.4f\n", m.Utilization())
	fmt.Fprintf(&b, "messages      arrivals=%d transmitted=%d accepted=%d late=%d discarded=%d pending(lost=%d censored=%d)\n",
		m.Arrivals, m.Transmissions, m.Accepted, m.Late, m.Discards, m.PendingLost, m.PendingCensored)
	fmt.Fprintf(&b, "loss          %.5f (discard fraction %.5f)\n", m.Loss(), m.DiscardFraction())
	if m.Faults()+m.Recoveries+m.Desyncs > 0 {
		fmt.Fprintf(&b, "faults        erasures=%d false-collisions=%d missed-collisions=%d recoveries=%d desyncs=%d\n",
			m.Erasures, m.FalseCollisions, m.MissedCollisions, m.Recoveries, m.Desyncs)
	}
	if m.WaitHist != nil && m.WaitHist.N() > 0 {
		fmt.Fprintf(&b, "accepted wait n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g\n",
			m.WaitHist.N(), m.WaitHist.Mean(),
			m.WaitHist.Quantile(0.50), m.WaitHist.Quantile(0.95), m.WaitHist.Quantile(0.99))
	}
	return b.String()
}
