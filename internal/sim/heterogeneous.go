package sim

import (
	"fmt"
	"math"

	"windowctl/internal/channel"
	"windowctl/internal/rngutil"
	"windowctl/internal/station"
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

// IdentityTransform leaves the window unchanged (a perfectly synchronized
// station).
func IdentityTransform() Transform {
	return func(w window.Window) window.Window { return w }
}

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
// counted lost when their age exceeds K.  Fault injection and a
// Collector are not modelled, nor are the global simulator's TxLengths,
// RateEstimator and ExternalArrivals; setting any of them is an error.
func RunHeterogeneous(cfg HeterogeneousConfig) (HeterogeneousReport, error) {
	if err := cfg.validate(); err != nil {
		return HeterogeneousReport{}, err
	}
	if err := cfg.rejectGlobalOnly(); err != nil {
		return HeterogeneousReport{}, err
	}
	if cfg.Faults.Enabled() || cfg.Collector != nil {
		return HeterogeneousReport{}, fmt.Errorf("sim: RunHeterogeneous supports neither Faults nor a Collector")
	}
	n := len(cfg.Transforms)
	if n < 1 {
		return HeterogeneousReport{}, fmt.Errorf("sim: need at least one transform/station")
	}
	h := &heteroState{cfg: cfg, ch: channel.New(cfg.Tau, cfg.M*cfg.Tau)}
	h.rep.Report.WaitHist = stats.NewHistogram(cfg.Tau, int(cfg.K/cfg.Tau)+64)
	h.rep.Stations = make([]StationReport, n)
	root := rngutil.New(cfg.Seed)
	var nextID int64
	perStation := cfg.Lambda / float64(n)
	for i := 0; i < n; i++ {
		h.stations = append(h.stations, station.New(i, station.Poisson{Rate: perStation}, root.Spawn(), &nextID))
		tr := cfg.Transforms[i]
		if tr == nil {
			tr = IdentityTransform()
		}
		h.transforms = append(h.transforms, tr)
	}
	h.tracker = window.NewTracker(0, discardConstraint(cfg.Policy, cfg.K), cfg.Policy.Discards())
	h.maxBacklog = cfg.MaxBacklog
	if h.maxBacklog <= 0 {
		h.maxBacklog = 1 << 20
	}
	h.discardFn = func(d station.Message) {
		if h.measured(d.Arrival) {
			h.rep.LostSender++
			h.rep.Stations[d.Origin].LostSender++
		}
	}

	for now := 0.0; h.runErr == nil && now < cfg.EndTime; {
		next := h.slot(now)
		if h.runErr == nil {
			h.runErr = clockStep(now, next)
		}
		now = next
	}
	if h.runErr != nil {
		return h.rep, h.runErr
	}
	h.finish()
	return h.rep, nil
}

type heteroState struct {
	cfg        HeterogeneousConfig
	ch         *channel.Channel
	stations   []*station.Station
	transforms []Transform
	tracker    *window.Tracker
	resolver   window.Resolver // recycled via Reset each decision epoch
	inProcess  bool
	maxBacklog int
	rep        HeterogeneousReport
	lastTxEnd  float64
	runErr     error
	discardFn  func(station.Message)
}

func (h *heteroState) measured(arrival float64) bool {
	return arrival >= h.cfg.Warmup && arrival < h.cfg.EndTime
}

// slot executes the protocol slot at now and returns the time of the
// next slot.  On failure it sets runErr and the returned time is
// meaningless.
func (h *heteroState) slot(now float64) float64 {
	backlog := 0
	for _, s := range h.stations {
		s.GenerateUntil(now)
		backlog += s.QueueLen()
	}
	// A perturbed membership test can strand messages forever (see the
	// RunHeterogeneous doc), so without element-(4) discards the backlog
	// of a hopelessly misconfigured run grows without bound; the cap
	// aborts such runs just as the other engines do.
	if backlog > h.maxBacklog {
		h.runErr = fmt.Errorf("sim: backlog exceeded %d at t=%v", h.maxBacklog, now)
		return now
	}

	if !h.inProcess {
		if h.cfg.Policy.Discards() {
			horizon := h.tracker.Horizon(now)
			for _, s := range h.stations {
				s.DiscardArrivedBeforeFunc(horizon, h.discardFn)
			}
		}
		view := h.tracker.View(now, h.cfg.Tau, h.cfg.Lambda)
		// Inconsistent stations can produce phantom collisions; bound the
		// splitting so resolution gives up instead of looping (see
		// window.View.MinSplitLen).
		view.MinSplitLen = h.cfg.Tau / 1024
		if view.TNewest-view.TPast <= 0 {
			return now + h.cfg.Tau
		}
		if err := h.resolver.Reset(h.cfg.Policy, view); err != nil {
			h.runErr = err
			return now
		}
		h.inProcess = true
	}

	enabled := h.resolver.Enabled()
	totalTx := 0
	txStation := -1
	for i, s := range h.stations {
		member := h.transforms[i](enabled)
		if member.Empty() {
			continue
		}
		if c := s.CountIn(member); c > 0 {
			totalTx += c
			txStation = i
		}
	}
	fb, dur := h.ch.ResolveSlot(totalTx)
	h.resolver.OnFeedback(fb)

	if fb == window.Success {
		member := h.transforms[txStation](enabled)
		msg, ok := h.stations[txStation].PopOldestIn(member)
		if !ok {
			h.runErr = fmt.Errorf("sim: heterogeneous success without a message")
			return now
		}
		h.rep.Transmissions++
		trueWait := now - msg.Arrival
		if h.measured(msg.Arrival) {
			h.rep.TrueWait.Add(trueWait)
			h.rep.Stations[txStation].TrueWait.Add(trueWait)
			h.rep.WaitHist.Add(trueWait)
			schedStart := math.Max(h.lastTxEnd, msg.Arrival)
			h.rep.SchedulingSlots.Add((now - schedStart) / h.cfg.Tau)
			if trueWait > h.cfg.K {
				h.rep.LostLate++
				h.rep.Stations[txStation].LostLate++
			} else {
				h.rep.AcceptedInTime++
				h.rep.Stations[txStation].AcceptedInTime++
			}
		}
		h.lastTxEnd = now + dur
	}

	if h.resolver.Done() {
		h.tracker.Commit(now+dur, h.resolver.Examined())
		h.inProcess = false
	}
	return now + dur
}

func (h *heteroState) finish() {
	end := h.cfg.EndTime
	all := window.Window{Start: 0, End: end + 1}
	for i, s := range h.stations {
		for {
			msg, ok := s.PopOldestIn(all)
			if !ok {
				break
			}
			if !h.measured(msg.Arrival) {
				continue
			}
			if end-msg.Arrival > h.cfg.K {
				h.rep.LostPending++
				h.rep.Stations[i].LostPending++
			} else {
				h.rep.Censored++
			}
			h.rep.EndBacklog++
		}
	}
	st := h.ch.Stats()
	h.rep.IdleSlots = st.IdleSlots
	h.rep.CollisionSlots = st.CollisionSlots
	h.rep.Utilization = st.Utilization()
	h.rep.Offered = h.rep.Decided() + h.rep.Censored
	for i := range h.rep.Stations {
		sr := &h.rep.Stations[i]
		sr.Offered = sr.AcceptedInTime + sr.LostSender + sr.LostLate + sr.LostPending
	}
}
