// Package channel models the slotted broadcast multiple-access channel the
// window protocol runs over: a single shared medium with end-to-end
// propagation delay τ, ternary per-slot feedback (idle / success /
// collision) observable by every station within τ, and fixed-length
// message transmissions of M·τ.
//
// The model captures exactly the physical-layer behaviour the paper's
// analysis depends on: a probe slot costs τ whatever its outcome — that is
// how long every station needs to classify the slot — and a successful
// probe carries a complete message, occupying the channel for the message
// transmission time.  Collisions are detected and aborted within the probe
// slot (CSMA/CD-style), so a collision costs τ, not a full message time.
package channel

import (
	"fmt"

	"windowctl/internal/metrics"
	"windowctl/internal/window"
)

// Channel is a slotted broadcast channel.  It is driven slot by slot: the
// caller reports how many stations chose to transmit, and the channel
// returns the common feedback plus the slot's duration, while keeping
// utilization accounts.  The accounts are slot counts, channel time is
// derived from them, and the idle and collision slots between two
// successes reach the collector as one record each, flushed at the
// second success (or by Flush).  So booking k idle or collision slots at
// once (AccountIdle, AccountCollisions) cannot be told from k one-slot
// bookings, in Stats or in the collector, at any τ.
type Channel struct {
	tau       float64
	txTime    float64
	stats     Stats
	collector metrics.Collector // never nil (Nop unless Observe was called)
	idleRun   int64             // idle slots not yet reported to the collector
	collRun   int64             // collision slots not yet reported to the collector
}

// Stats aggregates channel activity.
type Stats struct {
	// IdleSlots, CollisionSlots and SuccessSlots count slot outcomes.
	IdleSlots, CollisionSlots, SuccessSlots int64
	// BusyTime is the time spent carrying successful transmissions.
	BusyTime float64
	// WastedTime is the time consumed by idle and collision slots.
	WastedTime float64
}

// TotalTime is the channel time accounted for so far.
func (s Stats) TotalTime() float64 { return s.BusyTime + s.WastedTime }

// Utilization is the fraction of channel time carrying successful
// transmissions — the classic efficiency measure.
func (s Stats) Utilization() float64 {
	t := s.TotalTime()
	if t == 0 {
		return 0
	}
	return s.BusyTime / t
}

// New creates a channel with propagation delay tau and message
// transmission time txTime (= M·τ for the paper's fixed-length messages).
// It panics unless 0 < tau and tau <= txTime.
func New(tau, txTime float64) *Channel {
	if tau <= 0 || txTime < tau {
		panic(fmt.Sprintf("channel: invalid timing (tau=%v, txTime=%v)", tau, txTime))
	}
	return &Channel{tau: tau, txTime: txTime, collector: metrics.Nop{}}
}

// Observe attaches a metrics collector: every resolved slot is reported
// to it with its outcome and duration, the idle and the collision slots
// between two successes as one record each.  Pass nil to detach.
func (c *Channel) Observe(m metrics.Collector) { c.collector = metrics.OrNop(m) }

// ResolveSlot consumes one protocol slot with the given number of
// transmitting stations and returns the feedback every station observes
// and the duration the slot occupied the channel: τ for idle or collision
// slots, the full transmission time for a success.  It panics on a
// negative transmitter count.
func (c *Channel) ResolveSlot(transmitters int) (window.Feedback, float64) {
	fb := Classify(transmitters)
	return fb, c.AccountSlot(fb, transmitters == 1)
}

// Stats returns a copy of the accumulated accounts, with the times
// derived from the slot counts: the transmission time per success, τ per
// idle or collision slot.
func (c *Channel) Stats() Stats {
	s := c.stats
	s.BusyTime = float64(s.SuccessSlots) * c.txTime
	s.WastedTime = float64(s.IdleSlots+s.CollisionSlots) * c.tau
	return s
}

// Classify returns the true feedback for a transmitter count without
// accounting for the slot — the physical-layer truth the fault layer
// (internal/fault) corrupts into per-station perceptions.  It panics on a
// negative count.
func Classify(transmitters int) window.Feedback {
	switch {
	case transmitters < 0:
		panic(fmt.Sprintf("channel: %d transmitters", transmitters))
	case transmitters == 0:
		return window.Idle
	case transmitters == 1:
		return window.Success
	default:
		return window.Collision
	}
}

// AccountSlot records one slot whose true outcome is truth and returns
// its duration, for imperfect-feedback runs where delivery is decided by
// the *sender's perception* rather than by the truth alone: a successful
// transmission whose sender misread its own slot (false collision or
// erasure) is aborted — the slot is accounted as a collision costing τ
// and carries no message.  With delivered == (truth == Success) it is
// exactly ResolveSlot's accounting.  It panics when delivered is claimed
// on a non-success slot.
func (c *Channel) AccountSlot(truth window.Feedback, delivered bool) float64 {
	switch {
	case delivered && truth != window.Success:
		panic(fmt.Sprintf("channel: delivery claimed on a %v slot", truth))
	case truth == window.Idle:
		c.AccountIdle(1)
	case delivered:
		c.AccountSuccess(c.txTime)
		return c.txTime
	default:
		// True collision, or an aborted (sender-misread) transmission.
		c.AccountCollisions(1)
	}
	return c.tau
}

// AccountIdle books k consecutive idle slots at once, exactly as k
// AccountSlot(window.Idle, false) calls would.
func (c *Channel) AccountIdle(k int64) {
	c.stats.IdleSlots += k
	c.idleRun += k
}

// AccountCollisions books k collision slots at once, exactly as k
// AccountSlot(window.Collision, false) calls would.
func (c *Channel) AccountCollisions(k int64) {
	c.stats.CollisionSlots += k
	c.collRun += k
}

// AccountSuccess books a delivered transmission that occupied the
// channel for d: the collector records d, while Stats, whose times
// derive from slot counts, prices every success at the transmission
// time.  The idle and collision slots booked since the last success are
// flushed first.
func (c *Channel) AccountSuccess(d float64) {
	c.Flush()
	c.stats.SuccessSlots++
	c.collector.RecordSlots(metrics.SlotSuccess, 1, d)
}

// Flush reports the idle and collision slots booked since the last
// collector record.  The next success flushes them anyway; call Flush
// before reading the collector, for instance before a conservation
// check.
func (c *Channel) Flush() {
	if c.idleRun > 0 {
		c.collector.RecordSlots(metrics.SlotIdle, c.idleRun, float64(c.idleRun)*c.tau)
		c.idleRun = 0
	}
	if c.collRun > 0 {
		c.collector.RecordSlots(metrics.SlotCollision, c.collRun, float64(c.collRun)*c.tau)
		c.collRun = 0
	}
}
