// Package sim provides the experiment drivers that corroborate the
// analytic models: a fast global-view simulator of the window protocol, a
// full multi-station simulator running the distributed state machines over
// the broadcast-channel model, and the harness that regenerates every
// panel of the paper's figure 7.
//
// Loss is measured exactly as in §4.2 of the paper: a message is counted
// lost when its *true* waiting time — arrival at the sender to the start
// of its successful transmission — exceeds the constraint K, whether the
// loss happens at the sender (discarded under policy element (4)) or at
// the receiver (transmitted too late).
//
// Both simulators accept a metrics.Collector (Config.Collector) that
// receives every slot-level protocol event of the run; when the
// collector can verify the conservation invariants (as
// *metrics.SlotMetrics can), the simulators check them after the run and
// fail on violation, so instrumented runs audit their own accounting.
// See internal/metrics and docs/OBSERVABILITY.md.
package sim

import (
	"fmt"
	"math"

	"windowctl/internal/channel"
	"windowctl/internal/metrics"
	"windowctl/internal/stats"
)

// conservationStart checkpoints a collector that supports conservation
// checking; the returned checker is nil when c is nil or cannot verify
// invariants.
func conservationStart(c metrics.Collector) (metrics.Checkpoint, metrics.ConservationChecker) {
	if checker, ok := c.(metrics.ConservationChecker); ok {
		return checker.Checkpoint(), checker
	}
	return metrics.Checkpoint{}, nil
}

// Report aggregates the outcome of one simulation run.  Counters cover
// only messages arriving after the warmup period.
type Report struct {
	// Offered counts measured message arrivals.
	Offered int64
	// AcceptedInTime counts messages transmitted with true wait <= K.
	AcceptedInTime int64
	// LostSender counts messages discarded at the sender (element (4)).
	LostSender int64
	// LostLate counts messages transmitted with true wait > K (receiver
	// discard; possible for the uncontrolled baselines and, rarely, for
	// the controlled protocol whose *own* windowing time is excluded from
	// the analytic waiting-time definition).
	LostLate int64
	// LostPending counts messages still untransmitted at the end of the
	// run whose age already exceeded K — they can only be lost.
	LostPending int64
	// Censored counts messages still pending at the end with age <= K;
	// their fate is unknown and they are excluded from the loss ratio.
	Censored int64

	// TrueWait accumulates the true waiting times of transmitted messages.
	TrueWait stats.Accumulator
	// WaitHist is the waiting-time histogram of transmitted messages
	// (bin width = τ), from which quantiles can be read.
	WaitHist *stats.Histogram
	// SchedulingSlots accumulates the wasted (idle + collision) slots
	// attributed to each transmitted message — the simulated counterpart
	// of the scheduling-time component of §4's service time.
	SchedulingSlots stats.Accumulator

	// IdleSlots, CollisionSlots and Transmissions count channel activity
	// over the whole run (including warmup).
	IdleSlots, CollisionSlots, Transmissions int64
	// Utilization is the fraction of channel time spent on successful
	// transmissions.
	Utilization float64
	// MaxBacklog is the largest backlog at a decision epoch: the number
	// of messages pending once the epoch's arrivals have materialized.
	MaxBacklog int
	// EndBacklog is the number of messages still pending, measured or
	// not, when the run ended (after the process under way at EndTime
	// ran to its end).
	EndBacklog int
}

// Decided returns the number of measured messages with a known fate.
func (r Report) Decided() int64 {
	return r.AcceptedInTime + r.LostSender + r.LostLate + r.LostPending
}

// Lost returns the number of measured messages known lost.
func (r Report) Lost() int64 { return r.LostSender + r.LostLate + r.LostPending }

// Loss returns the measured loss fraction (0 when nothing was decided).
func (r Report) Loss() float64 {
	d := r.Decided()
	if d == 0 {
		return 0
	}
	return float64(r.Lost()) / float64(d)
}

// LossCI returns a Wilson confidence interval for the loss at the given
// level.
func (r Report) LossCI(level float64) (lo, hi float64) {
	p := stats.Proportion{Successes: r.Lost(), Trials: r.Decided()}
	return p.ConfidenceInterval(level)
}

// WaitQuantile returns the q-quantile of the true waiting time of
// transmitted messages (from the run's histogram; +Inf when q falls in
// the overflow region, NaN when nothing was transmitted).
func (r Report) WaitQuantile(q float64) float64 {
	if r.WaitHist == nil || r.WaitHist.N() == 0 {
		return math.NaN()
	}
	return r.WaitHist.Quantile(q)
}

// String summarizes the run.
func (r Report) String() string {
	return fmt.Sprintf("offered=%d loss=%.4f (sender=%d late=%d pending=%d) censored=%d util=%.3f meanWait=%.3f schedSlots=%.3f",
		r.Offered, r.Loss(), r.LostSender, r.LostLate, r.LostPending, r.Censored,
		r.Utilization, r.TrueWait.Mean(), r.SchedulingSlots.Mean())
}

// transmit books a delivered message that arrived at arrival and is sent
// for d from the clock, which it re-anchors at the transmission's end.
// The collector sees the transmission; a measured message lands in the
// wait statistics and in an outcome bucket.  Its scheduling time runs
// from the end of the previous transmission (the clock's anchor) or its
// arrival, whichever is later, to the start of its own: §4's
// scheduling-time service component.  It returns the true wait.
func (r *Report) transmit(clk *slotClock, col metrics.Collector, k, arrival float64, measured bool, d float64) float64 {
	start, schedStart := clk.now, math.Max(clk.anchor, arrival)
	clk.transmit(d)
	r.Transmissions++
	wait := start - arrival
	col.RecordTransmission(wait, wait <= k)
	if measured {
		r.TrueWait.Add(wait)
		r.WaitHist.Add(wait)
		r.SchedulingSlots.Add((start - schedStart) / clk.tau)
		if wait > k {
			r.LostLate++
		} else {
			r.AcceptedInTime++
		}
	}
	return wait
}

// finishFromChannel takes a report's slot counts and utilization from
// the engine's channel, whose held slot records it flushes to the
// collector first.
func (r *Report) finishFromChannel(ch *channel.Channel) {
	ch.Flush()
	st := ch.Stats()
	r.IdleSlots, r.CollisionSlots, r.Utilization = st.IdleSlots, st.CollisionSlots, st.Utilization()
}

// noteBacklog raises MaxBacklog to backlog and fails a run whose backlog
// at now exceeds cfg.MaxBacklog (0 means 1<<20).
func (r *Report) noteBacklog(cfg *Config, backlog int, now float64) error {
	r.MaxBacklog = max(r.MaxBacklog, backlog)
	limit := cfg.MaxBacklog
	if limit <= 0 {
		limit = 1 << 20
	}
	if backlog > limit {
		return fmt.Errorf("sim: backlog exceeded %d at t=%v (unstable configuration)", limit, now)
	}
	return nil
}

// measured reports whether a message arriving at arrival counts in the
// run's statistics: after the warmup and before the horizon.
func (c *Config) measured(arrival float64) bool {
	return arrival >= c.Warmup && arrival < c.EndTime
}
