package sim

import (
	"fmt"
	"math"

	"windowctl/internal/channel"
	"windowctl/internal/dist"
	"windowctl/internal/fault"
	"windowctl/internal/metrics"
	"windowctl/internal/pendq"
	"windowctl/internal/rngutil"
	"windowctl/internal/station"
	"windowctl/internal/stats"
	"windowctl/internal/window"
)

// Config parameterizes a simulation run in the paper's units.
type Config struct {
	// Policy is the window control policy under test.  Exactly one of
	// Policy and Protocol must be set.
	Policy window.Policy
	// Protocol selects a registered protocol plugin by name (see
	// internal/protocol) instead of a concrete Policy value.  It is
	// materialized at validation time from this configuration's
	// (Tau, M, Lambda, K, Seed), so replications and sweep points each
	// get their own correctly seeded instance.
	Protocol string
	// Tau is the slot time (propagation delay); must be positive.
	Tau float64
	// M is the message length in slots; transmission takes M·τ.
	M float64
	// Lambda is the total network arrival rate λ′ (all messages).
	Lambda float64
	// K is the waiting-time constraint; must be positive (may be +Inf
	// for unconstrained runs measuring delay only).
	K float64
	// EndTime is the simulated horizon; must exceed Warmup.
	EndTime float64
	// Warmup excludes initial transient arrivals from the statistics.
	Warmup float64
	// Seed drives all randomness.
	Seed uint64
	// MaxBacklog aborts the run if the pending count exceeds it
	// (protection against simulating a hopelessly unstable baseline);
	// 0 means 1<<20.
	MaxBacklog int
	// DisableFastForward forces probe-by-probe execution of idle periods.
	// The fast-forward is exact (the tests verify the report run for run
	// at several τ); this exists for that verification and for debugging.
	DisableFastForward bool
	// TxLengths, when non-nil, draws each message's transmission time
	// from this law instead of the constant M·τ (Theorem 1 only asks
	// that lengths be identically distributed).  Its mean should equal
	// M·τ so RhoPrime keeps its meaning.  Supported by the global
	// simulator only: the multi-station engine (RunMultiStation,
	// RunHeterogeneous) rejects it.
	TxLengths dist.Distribution
	// RateEstimator, when non-nil, replaces the known arrival rate in
	// the policy's view with this protocol-side estimate, updated from
	// each completed windowing process — adaptive operation for networks
	// where λ′ is unknown.  Supported by the global simulator only: the
	// multi-station engine (RunMultiStation, RunHeterogeneous) rejects it.
	RateEstimator *window.RateEstimator
	// Collector, when non-nil, receives every slot-level protocol event
	// of the run (arrivals, probe outcomes, splits, discards,
	// transmissions) — see internal/metrics.  Collectors implementing
	// metrics.ConservationChecker (as *metrics.SlotMetrics does) have
	// their conservation invariants verified at the end of the run, and
	// an inconsistency fails the run.  Nil costs nothing.
	Collector metrics.Collector
	// Faults configures imperfect-feedback injection (see internal/fault):
	// per-slot probabilities of erasures, false collisions and missed
	// collisions corrupting the feedback the protocol perceives, with
	// resolvers switched to their recovery path.  The zero value (all
	// rates zero) disables the layer entirely and is bit-identical to the
	// perfect-feedback simulation.  Faults do not combine with
	// RateEstimator: corrupted idle/success observations would poison the
	// estimate in ways the paper's adaptive extension does not model.
	Faults fault.Config
	// ExternalArrivals disables the internal Poisson arrival stream: no
	// messages appear unless they are pushed in from outside (see Stepper).
	// Lambda is still required — it remains the rate the policy's view is
	// built from when no RateEstimator is installed.  Supported by the
	// global simulator only: the multi-station engine (RunMultiStation,
	// RunHeterogeneous) rejects it.
	ExternalArrivals bool
}

func (c *Config) validate() error {
	if err := c.resolveProtocol(); err != nil {
		return err
	}
	if c.Policy == nil {
		return fmt.Errorf("sim: missing policy")
	}
	if err := window.Validate(c.Policy); err != nil {
		return err
	}
	if c.Tau <= 0 || c.M <= 0 {
		return fmt.Errorf("sim: need positive Tau and M (got %v, %v)", c.Tau, c.M)
	}
	if c.M < 1 {
		return fmt.Errorf("sim: need M >= 1, a message lasting at least one slot (got %v)", c.M)
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("sim: need positive Lambda (got %v)", c.Lambda)
	}
	if c.K <= 0 || math.IsNaN(c.K) {
		return fmt.Errorf("sim: need positive K (got %v)", c.K)
	}
	if c.EndTime <= c.Warmup || c.Warmup < 0 {
		return fmt.Errorf("sim: need 0 <= Warmup < EndTime (got %v, %v)", c.Warmup, c.EndTime)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Faults.Enabled() && c.RateEstimator != nil {
		return fmt.Errorf("sim: Faults do not combine with RateEstimator (corrupted feedback would poison the estimate)")
	}
	return nil
}

// globalState is the single-view protocol simulation: because every
// station's state machine is a deterministic function of the common
// feedback, the network evolves exactly like one queue of arrival times
// plus one Resolver — this simulator exploits that for speed, and the
// per-station engine (denseState) verifies the equivalence.  Its arrival
// source (arrivalStream) is the one seam between its uses: the Poisson
// gap stream (RunGlobal, and RunMultiStation with Poisson stations), a
// station.Bank merge of non-Poisson per-station streams, or nothing but
// what a Stepper injects.
//
// Most processes never reach the Resolver: under perfect feedback a
// process whose splits all enable one side is decided from the two
// pending keys nearest that side (window.Descend) and booked exactly as
// the Resolver's would be.
//
// The hot path is allocation-free at steady state: the pending set is an
// indexed queue that reclaims storage in place, the single Resolver is
// recycled across processes, and all scratch space lives in the state.
// sim_alloc_test.go asserts this with testing.AllocsPerRun.
type globalState struct {
	slotClock // the clock: now is the time of the next slot to run
	cfg       Config
	rng       *rngutil.Stream
	tracker   *window.Tracker
	ch        *channel.Channel  // books every slot, for the report and the collector
	col       metrics.Collector // never nil (Nop when uninstrumented)
	inj       *fault.Injector   // nil unless fault injection is enabled
	fo        metrics.FaultObserver
	slotIdx   int64             // probe-slot counter indexing the fault schedule
	pending   pendq.Queue[bool] // key: arrival time; item: measured flag
	arr       arrivalStream
	rep       Report

	// res is the recycled windowing-process state machine; discardFn and
	// ffScratch keep the element-(4) and fast-forward paths closure- and
	// slice-literal-free.
	res       window.Resolver
	discardFn func(arrival float64, measured bool)
	ffScratch [1]window.Window

	// descend is the gate of the two-key descent (window.Descend): on for
	// perfect feedback, no rate estimator and a policy without a common
	// random sequence, the conditions of the idle skip.
	descend bool

	// idleRuns counts the idle skips taken (the tests read it).
	idleRuns int64
}

// RunGlobal simulates the protocol with the global-view engine and
// returns the measured report.
func RunGlobal(cfg Config) (Report, error) {
	g, err := newGlobalState(cfg)
	if err != nil {
		return Report{}, err
	}
	return g.run()
}

// waitHistBins sizes the waiting-time histogram to cover the constraint K
// at slot resolution, clamped so an overflow-scale or infinite K (legal
// for unconstrained runs) yields a bounded histogram instead of a
// float→int overflow and a panicking negative bin count.
func waitHistBins(k, tau float64) int {
	const maxBins = 1 << 20
	b := k / tau
	if !(b >= 0) || b > maxBins-64 {
		return maxBins
	}
	return int(b) + 64
}

// newGlobalState validates the configuration and builds a ready-to-step
// engine.  It exists separately from RunGlobal so the allocation tests
// can warm a state and then measure a bare step cycle.
func newGlobalState(cfg Config) (*globalState, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return buildGlobalState(cfg, nil)
}

// buildGlobalState builds the engine for a validated configuration, its
// arrivals drawn from bank when it is non-nil.
func buildGlobalState(cfg Config, bank *station.Bank) (*globalState, error) {
	g := &globalState{
		slotClock: slotClock{tau: cfg.Tau},
		cfg:       cfg,
		rng:       rngutil.New(cfg.Seed),
		tracker:   window.NewTracker(0, discardConstraint(cfg.Policy, cfg.K), cfg.Policy.Discards()),
		ch:        channel.New(cfg.Tau, cfg.M*cfg.Tau),
		col:       metrics.OrNop(cfg.Collector),
		fo:        metrics.FaultObserverOrNop(cfg.Collector),
	}
	g.ch.Observe(cfg.Collector)
	if cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(cfg.Faults)
		if err != nil {
			return nil, err
		}
		g.inj = inj
	}
	g.rep.WaitHist = stats.NewHistogram(cfg.Tau, waitHistBins(cfg.K, cfg.Tau))
	if cfg.ExternalArrivals {
		g.arr.at = math.Inf(1)
	} else {
		g.arr = arrivalStream{gaps: g.rng, rate: cfg.Lambda, bank: bank}
		g.arr.advance()
	}
	g.discardFn = func(arrival float64, measured bool) {
		if measured {
			g.rep.LostSender++
		}
	}
	_, random := cfg.Policy.(window.ForkablePolicy)
	g.descend = g.inj == nil && cfg.RateEstimator == nil && !random
	return g, nil
}

// arrivalStream is a batch engine's arrival source: the next arrival not
// yet materialized, at, and its station, origin.  Poisson traffic is one
// network-wide stream of Exp(rate) gaps drawn from gaps, RunGlobal's
// stream: M independent Poisson(λ′/M) stations merge into one Poisson(λ′)
// stream, and by the colouring theorem marking each arrival with a
// uniform station drawn from label (when non-nil) splits it back into M
// independent Poisson(λ′/M) stations.  Any other per-station process
// comes from a station.Bank merge, which ends at +Inf once it falls
// silent.  A literal starts at 0; advance moves it to the first arrival.
type arrivalStream struct {
	at     float64
	origin int32

	gaps     *rngutil.Stream
	rate     float64
	label    *rngutil.Stream
	stations int
	bank     *station.Bank
}

// advance draws the next arrival.
func (a *arrivalStream) advance() {
	if a.bank != nil {
		a.at, a.origin = a.bank.Next()
		return
	}
	a.at += a.gaps.Exp(a.rate)
	if a.label != nil {
		a.origin = int32(a.label.Intn(a.stations))
	}
}

// extremeKeys is the engine's window.KeyPair: the two pending arrival
// keys nearest w's older or newer end.
func (g *globalState) extremeKeys(side window.Side, w window.Window) (float64, float64) {
	if side == window.Older {
		return g.pending.OldestTwoFrom(w.Start)
	}
	return g.pending.NewestTwoBelow(w.End)
}

// step advances the simulation by one decision epoch: materialize
// arrivals, check the backlog bound, run one windowing process.
func (g *globalState) step() error {
	g.fill(g.now)
	if err := g.rep.noteBacklog(&g.cfg, g.pending.Len(), g.now); err != nil {
		return err
	}
	return g.oneProcess()
}

// run steps the engine to EndTime and finalizes the report.
func (g *globalState) run() (Report, error) {
	checkpoint, check := conservationStart(g.cfg.Collector)
	for g.now < g.cfg.EndTime {
		if err := g.step(); err != nil {
			return g.rep, err
		}
	}
	g.finishAt(g.cfg.EndTime)
	if check != nil {
		if err := check.CheckConservation(checkpoint, int64(g.pending.Len()), g.now); err != nil {
			return g.rep, fmt.Errorf("sim: %w", err)
		}
	}
	return g.rep, nil
}

// fill materializes arrivals with time <= t.
func (g *globalState) fill(t float64) {
	added := int64(0)
	for ; g.arr.at <= t; g.arr.advance() {
		g.pending.Push(g.arr.at, g.cfg.measured(g.arr.at))
		if g.arr.at >= g.cfg.Warmup {
			g.rep.Offered++
		}
		added++
	}
	if added > 0 {
		g.col.RecordArrivals(added)
	}
}

// feedFromOracle probes the resolver's enabled window against the pending
// set (the content oracle) and feeds the resulting perfect feedback.
func (g *globalState) feedFromOracle() {
	w := g.res.Enabled()
	switch n := g.pending.CountIn(w.Start, w.End); {
	case n == 0:
		g.res.OnFeedback(window.Idle)
	case n == 1:
		g.res.OnFeedback(window.Success)
	default:
		g.res.OnFeedback(window.Collision)
	}
}

// oneProcess runs a single windowing process: sender discard at the
// decision epoch, window selection, resolution, time accounting and
// message bookkeeping.
func (g *globalState) oneProcess() error {
	// Element (4): discard messages already older than K.
	if g.cfg.Policy.Discards() {
		horizon := g.tracker.Horizon(g.now)
		if n := g.pending.DiscardBelow(horizon, g.discardFn); n > 0 {
			g.col.RecordDiscards(int64(n))
		}
	}

	lambdaView := g.cfg.Lambda
	if g.cfg.RateEstimator != nil {
		lambdaView = g.cfg.RateEstimator.Rate()
	}
	view := g.tracker.View(g.now, g.cfg.Tau, lambdaView)
	if view.TNewest-view.TPast <= 0 {
		g.corner(g.col)
		return nil
	}
	if g.inj != nil {
		// Imperfect feedback: run the process probe by probe against the
		// fault layer (the idle fast-forward is unsound here — any slot,
		// idle ones included, can be faulted).
		return g.resolveFaulty(view)
	}
	if g.fastForwardIdle(view) {
		return nil
	}
	if g.descend {
		w, err := window.ClampedInitialWindow(g.cfg.Policy, view)
		if err != nil {
			return err
		}
		if d, ok := window.Descend(g.cfg.Policy, view, w, g.extremeKeys); ok {
			return g.bookDescent(d)
		}
	}
	if err := g.res.Reset(g.cfg.Policy, view); err != nil {
		return err
	}
	g.res.Observe(g.col)
	for !g.res.Done() {
		g.feedFromOracle()
	}
	if g.cfg.RateEstimator != nil {
		examined := 0.0
		for _, w := range g.res.Examined() {
			examined += w.Len()
		}
		found := 0
		if g.res.Success() {
			found = 1
		}
		g.cfg.RateEstimator.Observe(found, examined)
	}

	idle, coll := 0, 0
	for _, s := range g.res.Steps() {
		switch s.Outcome {
		case window.Idle:
			idle++
		case window.Collision:
			coll++
		}
	}
	var sw window.Window
	if g.res.Success() {
		sw = g.res.SuccessWindow()
	}
	return g.book(idle, coll, g.res.Success(), sw, g.res.Examined())
}

// bookDescent books a process decided by window.Descend: its splits,
// then the process itself, whose examined span is the union of the
// resolver's examined windows (IntervalSet.Add coalesces them to the
// same set).
func (g *globalState) bookDescent(d window.Descent) error {
	for i := 0; i < d.Splits; i++ {
		g.col.RecordSplit()
	}
	g.ffScratch[0] = d.Examined
	return g.book(d.Idle, d.Collisions, d.Success, d.SuccessWindow, g.ffScratch[:])
}

// book books one decided windowing process whose splits are already
// recorded: its idle and collision slots, then the success slot, which
// is always a process's last and delivers, and one tracker commit of the
// examined windows.
func (g *globalState) book(idle, coll int, success bool, sw window.Window, examined []window.Window) error {
	g.bookSlots(int64(idle), int64(coll))
	if success {
		if err := g.deliver(sw); err != nil {
			return err
		}
	}
	g.tracker.Commit(g.now, examined)
	return nil
}

// resolveFaulty runs one windowing process under imperfect feedback: each
// probe's true outcome (from the content oracle) passes through the fault
// injector before reaching the fault-tolerant resolver, and message
// delivery is gated on the *perceived* success of a truly successful slot
// (a sender that misreads its own slot aborts the transmission; see the
// internal/fault package doc for the physical-layer semantics).  Slot
// accounting follows the physics: idle slots stay idle whatever the
// perception, delivered successes cost the transmission time, and true
// collisions or aborted transmissions cost τ as collision slots.
func (g *globalState) resolveFaulty(view window.View) error {
	// A false collision on an idle window starts a phantom split spiral:
	// every probe comes back idle, the ">= 2 arrivals" belief is never
	// contradicted, and only the depth bound (~100 wasted slots) stops it.
	// The phantom give-up bound (window.View.MinSplitLen, the same defense
	// the heterogeneous engine uses) cuts the spiral at sub-slot window
	// lengths instead.
	view.MinSplitLen = g.cfg.Tau / 1024
	r := &g.res
	if err := r.Reset(g.cfg.Policy, view); err != nil {
		return err
	}
	r.SetFaultTolerant(true)
	r.Observe(g.cfg.Collector)
	for !r.Done() {
		enabled := r.Enabled()
		n := g.pending.CountIn(enabled.Start, enabled.End)
		var truth window.Feedback
		switch {
		case n == 0:
			truth = window.Idle
		case n == 1:
			truth = window.Success
		default:
			truth = window.Collision
		}
		perceived, kind, faulted := g.inj.Perceive(g.slotIdx, 0, truth)
		g.slotIdx++
		if faulted {
			g.fo.RecordFault(kind)
		}
		if truth == window.Success && perceived == window.Success {
			if err := g.deliver(enabled); err != nil {
				return err
			}
		} else {
			// Idle, a true collision, or a success aborted by the
			// sender's misread (booked as a collision).
			g.tick(1)
			g.ch.AccountSlot(truth, false)
		}
		r.OnFeedback(perceived)
	}
	g.tracker.Commit(g.now, r.Examined())
	if r.Recovered() {
		g.fo.RecordRecovery()
	}
	return nil
}

// bookSlots moves the clock past idle + coll τ-slots of a process and
// books them on the channel (the order is free, every such slot costing
// τ).
func (g *globalState) bookSlots(idle, coll int64) {
	g.tick(idle + coll)
	g.ch.AccountIdle(idle)
	g.ch.AccountCollisions(coll)
}

// deliver transmits the single pending message inside the window of a
// delivered success from the clock, for M·τ or a TxLengths draw, and
// books it.  The feedback said exactly one message lies inside, so
// anything else is an engine bug.
func (g *globalState) deliver(w window.Window) error {
	txTime := g.cfg.M * g.cfg.Tau
	if g.cfg.TxLengths != nil {
		txTime = g.cfg.TxLengths.Sample(g.rng)
	}
	switch n := g.pending.CountIn(w.Start, w.End); {
	case n == 0:
		return fmt.Errorf("sim: success window %v holds no pending message", w)
	case n > 1:
		return fmt.Errorf("sim: success window %v holds more than one message", w)
	}
	arrival, measured, _ := g.pending.PopFirstIn(w.Start, w.End)
	g.ch.AccountSuccess(txTime)
	g.rep.transmit(&g.slotClock, g.col, g.cfg.K, arrival, measured, txTime)
	return nil
}

// fastForwardIdle bulk-skips idle probes.  When no messages are pending
// and the policy's next initial window covers the entire unexamined span,
// the probe is certainly idle and examines everything up to now; the
// protocol then repeats one such whole-span probe per slot until the next
// arrival.  Skipping them in one step is what makes long lightly-loaded
// runs (e.g. the M = 100 figure panels) affordable.  The skip leaves the
// protocol state (cleared region, clock, idle-slot count) exactly as
// probe-by-probe execution does, since both read every slot time from
// the slot clock.  Stepper.IdleRun takes the same skip (skipIdle); the
// stepped engine cannot know its next arrival, so its caller hands it the
// run's end instead of the arrival stream.
func (g *globalState) fastForwardIdle(view window.View) bool {
	if g.cfg.DisableFastForward || g.cfg.ExternalArrivals {
		// The stepped engine cannot know its next arrival, so the skip
		// would be unbounded; Stepper.IdleRun takes its end from the
		// caller.
		return false
	}
	if !g.idleProbe(view) {
		return false
	}
	g.skipIdle(view, g.arr.at, math.MaxInt64)
	g.idleRuns++
	return true
}

// skipIdle runs the idle probe at view and the idle single-slot probes
// after it in one step, and returns how many slots it ran.  One idle
// probe clears the span; every further slot before the next arrival at
// next is an idle single-slot probe.  Probe-by-probe execution runs a
// slot only before EndTime, and the slot at or after the arrival
// materializes it, so the skip runs the slots before both: at least the
// probe itself, at most limit.  The caller has checked idleProbe(view)
// and that the clock is before EndTime.
func (g *globalState) skipIdle(view window.View, next float64, limit int64) int64 {
	k := min(max(1, g.slotsBefore(next)), g.slotsBefore(g.cfg.EndTime), limit)
	g.tick(k)
	g.bookIdle(k, view.TPast)
	return k
}

// idleProbe reports whether the decision epoch at view is certainly one
// idle probe that clears the whole unexamined span: nothing is pending,
// the feedback is perfect, and the policy sweeps the span (sweepsSpan).
// With a rate estimator idle probes carry information and must be
// observed one by one, so it does not qualify.
func (g *globalState) idleProbe(view window.View) bool {
	return g.pending.Len() == 0 && g.inj == nil && g.cfg.RateEstimator == nil && sweepsSpan(g.cfg.Policy, view)
}

// sweepsSpan is the policy half of the idle skips (idleProbe, for
// fastForwardIdle and Stepper.IdleRun): it reports whether the policy's
// initial window at view covers the whole unexamined span
// [TPast, TNewest].  With nothing pending and perfect
// feedback that probe is certainly idle and clears everything up to
// now, and every later slot until the next arrival is one more such
// probe of the slot just past.  (The skips assume the policy also
// covers that one-slot span, which is no longer than the first: true of
// every length rule that does not depend on the view.)  Policies with
// per-decision randomness must draw their windows one decision at a
// time to keep the common random sequence aligned, so they never
// qualify.
func sweepsSpan(p window.Policy, view window.View) bool {
	if _, random := p.(window.ForkablePolicy); random {
		return false
	}
	if view.TNewest <= view.TPast {
		return false // the start-up corner: no probe at all
	}
	w := p.InitialWindow(view)
	return w.Start <= view.TPast && w.End >= view.TNewest
}

// bookIdle books the k idle probe slots the clock just ticked past,
// which together cleared [from, the last one's time]: k idle slots on
// the channel and one tracker commit.
func (g *globalState) bookIdle(k int64, from float64) {
	g.ch.AccountIdle(k)
	g.ffScratch[0] = window.Window{Start: from, End: g.last()}
	g.tracker.Commit(g.now, g.ffScratch[:])
}

// finishAt classifies the messages still pending at the reference time
// (EndTime for horizon runs, the current clock for stepped runs) and
// takes the slot counts and utilization from the channel.
func (g *globalState) finishAt(ref float64) {
	g.pending.ForEach(func(arrival float64, measured bool) {
		if !measured {
			return
		}
		if ref-arrival > g.cfg.K {
			g.rep.LostPending++
		} else {
			g.rep.Censored++
		}
	})
	g.col.RecordEndPending(g.rep.LostPending, g.rep.Censored)
	g.rep.EndBacklog = g.pending.Len()
	g.rep.finishFromChannel(g.ch)
}
