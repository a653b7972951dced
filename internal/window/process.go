package window

import (
	"fmt"

	"windowctl/internal/metrics"
)

// Feedback is the ternary outcome of one probe slot, observable by every
// station within τ: nobody transmitted, exactly one transmitted, or a
// collision occurred.
type Feedback int

// Feedback values.
const (
	// Idle: no station had an arrival in the enabled window.
	Idle Feedback = iota
	// Success: exactly one station transmitted.
	Success
	// Collision: two or more stations transmitted.
	Collision
	// Erased: the station could not classify the slot at all (imperfect
	// sensing; injected by internal/fault).  Perfect-feedback resolvers
	// never see it; a fault-tolerant resolver treats it conservatively by
	// aborting the process to a bounded re-enable of its window.
	Erased
)

// String implements fmt.Stringer.  Out-of-range values render as
// "Feedback(n)", stdlib-stringer style, so corrupted feedback shows up in
// logs instead of masquerading as a collision.
func (f Feedback) String() string {
	switch f {
	case Idle:
		return "idle"
	case Success:
		return "success"
	case Collision:
		return "collision"
	case Erased:
		return "erased"
	default:
		return fmt.Sprintf("Feedback(%d)", int(f))
	}
}

// maxSplitDepth bounds the splitting recursion.  Each split halves the
// window, so 100 splits reduce any float64 interval below one ulp; hitting
// the bound means two messages share an arrival time, which has probability
// zero under the continuous arrival models and indicates a caller bug.
const maxSplitDepth = 100

// Step records one probe of a windowing process.
type Step struct {
	// Enabled is the window that was probed.
	Enabled Window
	// Outcome is the channel feedback for the probe.
	Outcome Feedback
}

// Resolver is the deterministic state machine of a single windowing
// process (the paper's figure 1): it proposes windows and consumes channel
// feedback until either a single message transmission begins or the initial
// window is found empty.  Every station runs an identical Resolver on the
// common feedback, which is how the distributed stations stay in agreement.
type Resolver struct {
	policy    Policy
	view      View
	collector metrics.Collector // nil unless Observe was called

	enabled    Window
	sibling    Window // other half of the last split; status unknown
	hasSibling bool
	depth      int

	done          bool
	success       bool
	faultTolerant bool
	recovered     bool

	steps    []Step
	examined []Window // intervals proven to hold no untransmitted arrivals
	released []Window // intervals returned, status unknown, to the unexamined region
}

// NewResolver starts a windowing process: the policy's initial window is
// selected (clamped to [view.TPast, view.TNewest]) and enabled.  It returns
// an error if the clamped window is empty.
func NewResolver(p Policy, v View) (*Resolver, error) {
	r := &Resolver{}
	if err := r.Reset(p, v); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset recycles the resolver for a fresh windowing process, reusing the
// steps/examined/released backing arrays so that a long-lived resolver
// stops allocating once they reach the working size of its processes.
// The attached collector and the fault-tolerance mode survive the reset
// (the engines set both once, up front).  It returns the same error as
// NewResolver when the clamped initial window is empty; on error the
// resolver is left done-without-success so a stale Enabled window cannot
// be probed by accident.
func (r *Resolver) Reset(p Policy, v View) error {
	r.policy = p
	r.view = v
	r.hasSibling = false
	r.depth = 0
	r.success = false
	r.recovered = false
	r.steps = r.steps[:0]
	r.examined = r.examined[:0]
	r.released = r.released[:0]

	w, err := ClampedInitialWindow(p, v)
	if err != nil {
		r.done = true
		return err
	}
	r.done = false
	r.enabled = w
	return nil
}

// ClampedInitialWindow returns the policy's initial window clamped to
// [v.TPast, v.TNewest], the window a windowing process starts from, and
// an error if the clamped window is empty.
func ClampedInitialWindow(p Policy, v View) (Window, error) {
	w := p.InitialWindow(v)
	if w.Start < v.TPast {
		w.Start = v.TPast
	}
	if w.End > v.TNewest {
		w.End = v.TNewest
	}
	if w.Empty() {
		return w, fmt.Errorf("window: initial window %v empty after clamping to [%v, %v]",
			w, v.TPast, v.TNewest)
	}
	return w, nil
}

// Observe attaches a metrics collector to the process: every window
// split is reported to it.  Pass nil to detach.  In the multi-station
// simulation only one station's resolver should observe, or splits are
// counted once per station.
func (r *Resolver) Observe(c metrics.Collector) { r.collector = c }

// Enabled returns the currently enabled window.  Stations transmit in the
// next slot exactly when they hold a message whose arrival time lies in it.
func (r *Resolver) Enabled() Window { return r.enabled }

// Done reports whether the process has ended (success or empty initial
// window).
func (r *Resolver) Done() bool { return r.done }

// Success reports whether the process ended with a message transmission.
func (r *Resolver) Success() bool { return r.success }

// SetFaultTolerant switches the resolver into imperfect-feedback
// operation: Erased feedback and a blown split-depth bound abort the
// process to a bounded re-enable of its window (the enabled and sibling
// windows rejoin the unexamined region and are re-probed by later
// processes) instead of panicking.  The perfect-feedback state machine is
// untouched — with fault-free feedback a fault-tolerant resolver behaves
// identically to a plain one.
func (r *Resolver) SetFaultTolerant(on bool) { r.faultTolerant = on }

// Recovered reports whether the process ended through the recovery path
// (erasure, phantom-collision give-up, blown split depth, or an external
// Abort) rather than by completing normally.
func (r *Resolver) Recovered() bool { return r.recovered }

// Abort ends the process through the recovery path from outside the state
// machine — the engines use it to implement the network-wide recovery
// protocol after a detected inter-station desynchronization.  The enabled
// and sibling windows are released back to the unexamined region.  Abort
// after Done is a no-op (a desync recovery aborts every station's
// resolver, some of which may already have finished).
func (r *Resolver) Abort() {
	if r.done {
		return
	}
	r.recover()
}

// recover releases everything of unknown status and ends the process
// without a transmission: the released intervals rejoin the unexamined
// region, so the next decision epoch re-enables them (bounded re-enable)
// and element-(4) deadline discards keep working on whatever they hold.
func (r *Resolver) recover() {
	r.released = append(r.released, r.enabled)
	if r.hasSibling {
		r.released = append(r.released, r.sibling)
		r.hasSibling = false
	}
	r.recovered = true
	r.done = true
}

// SuccessWindow returns the window containing exactly the transmitted
// message's arrival; it panics unless Done and Success.
func (r *Resolver) SuccessWindow() Window {
	if !r.done || !r.success {
		panic("window: SuccessWindow on unfinished or unsuccessful process")
	}
	return r.steps[len(r.steps)-1].Enabled
}

// Steps returns the probes made so far.
func (r *Resolver) Steps() []Step { return r.steps }

// WastedSlots counts the idle and collision probes so far — the process's
// contribution to scheduling time, each costing τ.
func (r *Resolver) WastedSlots() int {
	n := 0
	for _, s := range r.steps {
		if s.Outcome != Success {
			n++
		}
	}
	return n
}

// Examined returns the intervals this process proved clear of
// untransmitted arrivals (idle windows plus the success window).
func (r *Resolver) Examined() []Window { return r.examined }

// Released returns intervals of unknown status returned to the unexamined
// region (unprobed siblings abandoned when the process ended or split
// elsewhere).
func (r *Resolver) Released() []Window { return r.released }

// OnFeedback advances the state machine with the feedback of the probe of
// Enabled.  Calling it after Done panics.
func (r *Resolver) OnFeedback(fb Feedback) {
	if r.done {
		panic("window: OnFeedback after process completed")
	}
	r.steps = append(r.steps, Step{Enabled: r.enabled, Outcome: fb})
	switch fb {
	case Idle:
		r.examined = append(r.examined, r.enabled)
		if !r.hasSibling {
			// Empty initial window: the process ends without a transmission.
			r.done = true
			return
		}
		// The enabled half was empty, so the sibling is known to contain
		// two or more arrivals: split it immediately (figure 1 text).
		r.split(r.sibling)
	case Success:
		// Exactly one arrival was in the enabled window; it is now being
		// transmitted, so the window is clear.  Any sibling's status is
		// unknown — it simply rejoins the unexamined region.
		r.examined = append(r.examined, r.enabled)
		if r.hasSibling {
			r.released = append(r.released, r.sibling)
			r.hasSibling = false
		}
		r.success = true
		r.done = true
	case Collision:
		// Two or more arrivals in the enabled window: abandon any unknown
		// sibling and split the enabled window.
		if r.hasSibling {
			r.released = append(r.released, r.sibling)
			r.hasSibling = false
		}
		r.split(r.enabled)
	case Erased:
		// The station could not classify the slot: the enabled window's
		// status is unknown.  A fault-tolerant resolver treats the erasure
		// conservatively — nothing is marked examined, the process aborts,
		// and the released windows are re-enabled by a later process.
		if !r.faultTolerant {
			panic("window: erased feedback on a perfect-feedback resolver")
		}
		r.recover()
	default:
		panic(fmt.Sprintf("window: unknown feedback %d", fb))
	}
}

// split cuts w (believed to contain >= 2 arrivals) and enables the side
// the policy selects; the other side becomes the unknown sibling.  When
// the view sets MinSplitLen and w is already shorter, the belief is
// treated as phantom (inconsistent stations) and the process gives up.
func (r *Resolver) split(w Window) {
	if r.view.MinSplitLen > 0 && w.Len() < r.view.MinSplitLen {
		r.released = append(r.released, w)
		r.hasSibling = false
		r.recovered = r.faultTolerant // phantom collision under faults: a recovery
		r.done = true
		return
	}
	if r.depth >= maxSplitDepth {
		if r.faultTolerant {
			// Split depth blowing up means the ">= 2 arrivals" belief is
			// phantom (false collisions): give the window back and abort
			// instead of panicking.
			r.released = append(r.released, w)
			r.hasSibling = false
			r.recovered = true
			r.done = true
			return
		}
		panic(fmt.Sprintf("window: split depth %d exceeded on %v — coincident arrival times?",
			maxSplitDepth, w))
	}
	if r.collector != nil {
		r.collector.RecordSplit()
	}
	frac := r.policy.SplitFraction(r.view, w, r.depth)
	older, newer := w.Split(frac)
	side := r.policy.ChooseSide(r.view, w, r.depth)
	r.depth++
	if side == Older {
		r.enabled, r.sibling = older, newer
	} else {
		r.enabled, r.sibling = newer, older
	}
	r.hasSibling = true
}

// ProcessReport summarizes one complete windowing process.
type ProcessReport struct {
	// Steps lists every probe in order.
	Steps []Step
	// Success reports whether a message transmission began.
	Success bool
	// SuccessWindow holds the transmitted message's arrival time (valid
	// only when Success).
	SuccessWindow Window
	// Examined lists intervals proven clear.
	Examined []Window
	// Released lists unknown-status intervals returned to the unexamined
	// region.
	Released []Window
	// WastedSlots counts idle + collision probes (scheduling time in τ).
	WastedSlots int
}

// RunProcess executes one full windowing process against a content oracle:
// count must return the number of pending (untransmitted) message arrivals
// whose arrival time lies in the given window.  It is the global-view
// execution mode used by the fast simulator and by the unit tests; the
// multi-station simulator instead drives Resolver with real feedback.
func RunProcess(p Policy, v View, count func(Window) int) (ProcessReport, error) {
	return RunProcessObserved(p, v, count, nil)
}

// RunProcessObserved is RunProcess with a metrics collector attached to
// the process (nil behaves exactly like RunProcess); window splits are
// reported to it as they happen.
func RunProcessObserved(p Policy, v View, count func(Window) int, c metrics.Collector) (ProcessReport, error) {
	r, err := NewResolver(p, v)
	if err != nil {
		return ProcessReport{}, err
	}
	r.Observe(c)
	for !r.Done() {
		n := count(r.Enabled())
		if n < 0 {
			return ProcessReport{}, fmt.Errorf("window: content oracle returned %d", n)
		}
		switch {
		case n == 0:
			r.OnFeedback(Idle)
		case n == 1:
			r.OnFeedback(Success)
		default:
			r.OnFeedback(Collision)
		}
	}
	rep := ProcessReport{
		Steps:       r.Steps(),
		Success:     r.Success(),
		Examined:    r.Examined(),
		Released:    r.Released(),
		WastedSlots: r.WastedSlots(),
	}
	if r.Success() {
		rep.SuccessWindow = r.SuccessWindow()
	}
	return rep, nil
}
