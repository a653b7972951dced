package sim

import (
	"fmt"
	"math"

	"windowctl/internal/metrics"
)

// Stepper is the incremental run mode of the global-view engine: instead
// of simulating a Poisson arrival stream to a fixed horizon (RunGlobal),
// a Stepper accepts externally injected arrivals and advances one
// decision epoch per Step call, so a long-running process (cmd/windowd)
// can pump it forever, interleaving ingest, scheduling and scrapes.
//
// The simulated clock is virtual channel time in the configuration's
// units; it is decoupled from wall time and advances by at least one
// slot τ per Step.  Injected arrivals are buffered as a bare count and
// materialized into arrival stamps at the start of the next Step — see
// materialize for the stamping discipline — so Inject is O(1) and the
// ingest→schedule path stays allocation-free at steady state.
//
// A Stepper is not safe for concurrent use; the intended shape is one
// pump goroutine owning the Stepper, with other goroutines handing it
// counts through their own synchronization (windowd uses an atomic
// counter drained once per pump iteration).
type Stepper struct {
	g *globalState

	// queued is the count of injected-but-not-yet-materialized arrivals.
	queued int
	// lastStamp is the largest arrival stamp handed to the pending queue;
	// stamps must be strictly increasing (duplicate keys would make a
	// collision unresolvable and split forever).
	lastStamp float64

	checkpoint metrics.Checkpoint
	checker    metrics.ConservationChecker
	finished   bool
	rep        Report
}

// NewStepper builds an incremental engine from the configuration.  The
// configuration is validated as for RunGlobal, with two adjustments:
// ExternalArrivals is forced on (the caller owns the arrival stream) and
// a zero EndTime means an unbounded horizon (+Inf).  A finite EndTime is
// honored: Step returns ErrHorizon once the clock reaches it.
func NewStepper(cfg Config) (*Stepper, error) {
	cfg.ExternalArrivals = true
	if cfg.EndTime == 0 {
		cfg.EndTime = math.Inf(1)
	}
	g, err := newGlobalState(cfg)
	if err != nil {
		return nil, err
	}
	s := &Stepper{g: g}
	s.checkpoint, s.checker = conservationStart(cfg.Collector)
	return s, nil
}

// ErrHorizon is returned by Step once the clock has reached a finite
// configured EndTime; the engine is still intact and Finish may be called.
var ErrHorizon = fmt.Errorf("sim: stepper reached the configured horizon")

// Inject adds n externally observed arrivals to be materialized at the
// next Step.  It panics on negative n and is a no-op for n == 0 or after
// Finish.
func (s *Stepper) Inject(n int) {
	if n < 0 {
		panic("sim: negative arrival count")
	}
	if s.finished {
		return
	}
	s.queued += n
}

// Step materializes the injected arrivals and advances the engine by one
// decision epoch (one windowing process, or one idle slot when there is
// nothing to examine).  The clock advances by at least τ.  Errors other
// than ErrHorizon (backlog overflow, engine invariant violations) leave
// the Stepper unusable except for Finish.
func (s *Stepper) Step() error {
	if s.finished {
		return fmt.Errorf("sim: Step after Finish")
	}
	if s.g.now >= s.g.cfg.EndTime {
		return ErrHorizon
	}
	s.materialize()
	return s.g.step()
}

// IdleRun advances the engine through a run of idle slots in one call and
// leaves it, collector included, exactly as the same number of Step calls
// would.  It applies only when the next Step is certainly one idle probe
// that clears the whole unexamined span, under the conditions of the
// batch engine's idle skip (fastForwardIdle) and with nothing injected;
// otherwise it returns 0 and changes nothing.  After that probe, every
// slot until the next arrival is one more idle probe of the slot just
// past, as in the batch skip.
//
// The stepped engine cannot know when the next arrival comes, so the
// caller supplies its time, until: the run takes the slots that start
// before until — at least one, the probe itself — and no more than limit
// or the horizon allows, in one step however many there are.  It returns
// the number of slots taken.  A run that was not cut short ends in the
// slot that holds until, so the clock has then reached until and the
// caller injects that slot's arrivals before the next Step.
func (s *Stepper) IdleRun(limit int, until float64) int {
	g := s.g
	if s.finished || s.queued != 0 || limit < 1 || g.cfg.DisableFastForward || g.now >= g.cfg.EndTime {
		return 0
	}
	view := g.tracker.View(g.now, g.cfg.Tau, g.cfg.Lambda)
	if !g.idleProbe(view) {
		return 0
	}
	return int(g.skipIdle(view, until, int64(limit)))
}

// materialize converts the buffered arrival count into arrival stamps.
//
// The pending queue requires strictly increasing keys, and the protocol
// needs stamps spread over real channel time (n arrivals on one instant
// would look like an unresolvable burst).  The n stamps are therefore
// stratified uniformly over one slot-length interval (lo, lo+τ] with
// lo = max(lastStamp, now−τ): stamp_i = lo + (i + U_i)·τ/n with
// U_i ∈ (0,1) open, which is strictly increasing by construction, needs
// no sorting and allocates nothing.  Stamps may lead the clock by up to
// τ; such arrivals are invisible to the window machinery until the clock
// passes them, which is exactly how a future arrival should behave.
func (s *Stepper) materialize() {
	n := s.queued
	if n == 0 {
		return
	}
	s.queued = 0
	g := s.g
	lo := g.now - g.cfg.Tau
	if lo < s.lastStamp {
		lo = s.lastStamp
	}
	width := g.cfg.Tau / float64(n)
	for i := 0; i < n; i++ {
		stamp := lo + (float64(i)+g.rng.Float64Open())*width
		if stamp <= s.lastStamp {
			// 1-ulp backstop: with millions of stamps per slot the strata
			// can collapse below float resolution.
			stamp = math.Nextafter(s.lastStamp, math.Inf(1))
		}
		s.lastStamp = stamp
		g.pending.Push(stamp, stamp >= g.cfg.Warmup)
		if stamp >= g.cfg.Warmup {
			g.rep.Offered++
		}
	}
	g.col.RecordArrivals(int64(n))
	if l := g.pending.Len(); l > g.rep.MaxBacklog {
		g.rep.MaxBacklog = l
	}
}

// Materialize stamps the arrivals injected since the last Step now,
// without advancing the clock, so the collector has booked them.  Step
// does the same first thing, so calling Materialize just before Step
// leaves the run unchanged.  A caller that hands the collector to a
// second engine calls it before building that engine: the second
// engine's conservation checkpoint must already include these arrivals.
//
// It also flushes the slot records the channel holds back until the next
// success, so the collector is complete when the second engine takes it
// over.
func (s *Stepper) Materialize() {
	s.materialize()
	s.g.ch.Flush()
}

// Now returns the current virtual channel time.
func (s *Stepper) Now() float64 { return s.g.now }

// Backlog returns the number of pending messages, including arrivals
// injected but not yet materialized.
func (s *Stepper) Backlog() int { return s.g.pending.Len() + s.queued }

// CheckNow verifies the conservation invariants against the collector at
// the current step boundary (between Step calls the engine's counters are
// exactly consistent).  The resident count deliberately excludes arrivals
// injected but not yet materialized: they are outside the collector's
// books until materialize records them, so counting them here would make
// the check fail spuriously whenever Inject was called since the last
// Step.  It returns nil when the configuration has no conservation-
// checking collector.
func (s *Stepper) CheckNow() error {
	if s.checker == nil {
		return nil
	}
	s.g.ch.Flush()
	return s.checker.CheckConservation(s.checkpoint, int64(s.g.pending.Len()), s.g.now)
}

// Finish finalizes the run at the current clock: messages still pending
// are classified against their age now (not against a horizon), the
// conservation invariants are verified, and the report is returned.  The
// Stepper cannot be stepped afterwards.
func (s *Stepper) Finish() (Report, error) {
	if s.finished {
		return s.rep, nil
	}
	s.finished = true
	s.materialize()
	s.g.finishAt(s.g.now)
	s.rep = s.g.rep
	if s.checker != nil {
		if err := s.checker.CheckConservation(s.checkpoint, int64(s.g.pending.Len()), s.g.now); err != nil {
			return s.rep, fmt.Errorf("sim: %w", err)
		}
	}
	return s.rep, nil
}
