package sim

import (
	"fmt"
	"math"
	"runtime"

	"windowctl/internal/channel"
	"windowctl/internal/fault"
	"windowctl/internal/metrics"
	"windowctl/internal/station"
	"windowctl/internal/stats"
	"windowctl/internal/window"
)

// MultiConfig parameterizes the full multi-station simulation.
type MultiConfig struct {
	Config
	// Stations is the number of senders; the total rate Lambda is split
	// evenly among them.  Must be >= 1.
	Stations int
	// VerifyLockstep verifies the distributed-consistency property the
	// protocol depends on — all stations' state machines, driven only by
	// common channel feedback, agree on the enabled window.  The check is
	// sampled: LockstepSample per-station state machines are maintained
	// and compared against the reference every LockstepEvery probe slots
	// and at every process end, costing O(sample) instead of the former
	// O(M) per slot.
	VerifyLockstep bool
	// LockstepEvery is the probe-slot period of the sampled comparison;
	// <= 0 means every 64 slots.
	LockstepEvery int
	// LockstepSample is how many stations' state machines are verified;
	// <= 0 means min(4, Stations).
	LockstepSample int
	// Arrivals, when non-nil, supplies each station's arrival process
	// (e.g. an on/off talkspurt source) instead of the default Poisson
	// split of Lambda.  Config.Lambda must still give the aggregate mean
	// rate — it parameterizes the window-length rule.  The factory is
	// called sequentially in station-index order.  Each station needs a
	// process instance of its own: the order in which draws interleave
	// across stations is unspecified, so a process shared by several
	// stations makes the run depend on it.
	Arrivals func(station int) station.ArrivalProcess
	// Workers shards station-state initialization and, in the dense
	// per-station engine, the O(M) per-slot loops.  <= 0 means GOMAXPROCS.
	// Reports are bit-identical at any value.
	Workers int

	// forceDense routes the run through the per-station reference engine
	// even when the shared fast path applies (test-only: the equivalence
	// suite drives both engines over one config and requires bit-identical
	// reports).
	forceDense bool
	// lockstepFaultAt, when > 0, corrupts one verified state machine's
	// feedback from that probe slot onward (test-only: proves sampled
	// verification still catches desynchronization).
	lockstepFaultAt int64
}

// workerCount resolves the Workers field.
func (cfg *MultiConfig) workerCount() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// lockstepPlan resolves the sampled-verification parameters: the
// comparison period and the verified station indices (evenly spread over
// the population, always including station 0's successor range).
func lockstepPlan(cfg MultiConfig) (every int64, idx []int) {
	if !cfg.VerifyLockstep {
		return 1, nil
	}
	every = int64(cfg.LockstepEvery)
	if every <= 0 {
		every = 64
	}
	sample := cfg.LockstepSample
	if sample <= 0 {
		sample = 4
	}
	if sample > cfg.Stations {
		sample = cfg.Stations
	}
	stride := cfg.Stations / sample
	for k := 0; k < sample; k++ {
		idx = append(idx, k*stride)
	}
	return every, idx
}

// multiState is the shared-state fast path of the multi-station engine.
//
// Under common feedback — perfect channels and common-noise faults — the
// protocol guarantees every station's Tracker and Resolver hold identical
// state at all times (that is the distributed-consistency property
// VerifyLockstep checks).  The engine therefore keeps ONE resolver, ONE
// tracker and one shared pending multiset (a station.Bank) instead of M
// replicas, making a probe slot O(log backlog) independent of M: the same
// decisions, the same feedback sequence, and bit-identical reports to the
// per-station reference engine (denseState), at a million stations.
//
// What remains genuinely per-station — the arrival streams — lives in the
// Bank's struct-of-arrays state.  Per-station feedback faults break the
// symmetry (stations truly diverge), so that one case routes to the dense
// engine instead.
type multiState struct {
	slotClock // the clock: now is the time of the next slot to run
	cfg       MultiConfig
	ch        *channel.Channel
	bank      *station.Bank
	tracker   *window.Tracker
	resolver  *window.Resolver
	policy    window.Policy
	inProcess bool
	col       metrics.Collector
	inj       *fault.Injector // nil unless fault injection is enabled
	fo        metrics.FaultObserver
	slotIdx   int64 // probe-slot counter indexing the fault schedule
	rep       Report
	resident  int64
	runErr    error
	discardFn func(arrival float64)

	// Lockstep verification: shadows are real per-station Resolver
	// replicas (with their own policy forks) driven by the same feedback
	// stream; they must shadow the shared resolver exactly.
	shadows    []*window.Resolver
	shadowPols []window.Policy
	lockEvery  int64
	probeSlots int64

	// idleRuns counts the runs of idle slots taken in one step
	// (idleRun); runScratch keeps its tracker commit slice-literal-free.
	idleRuns   int64
	runScratch [1]window.Window
}

// RunMultiStation simulates the distributed protocol and returns the
// measured report.  Its results are statistically equivalent to RunGlobal
// (the tests verify this); it exists to exercise — and validate — the
// distributed operation over the channel model.
func RunMultiStation(cfg MultiConfig) (Report, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	if cfg.Stations < 1 {
		return Report{}, fmt.Errorf("sim: need >= 1 station, got %d", cfg.Stations)
	}
	if err := cfg.rejectGlobalOnly(); err != nil {
		return Report{}, err
	}
	// Per-station fault perception breaks the cross-station symmetry the
	// shared fast path rests on; only that case needs the O(M)-per-slot
	// reference engine.
	if cfg.forceDense || (cfg.Faults.Enabled() && cfg.Faults.PerStation) {
		rep, err := runMultiDense(cfg, nil)
		return rep.Report, err
	}
	m, err := newMultiState(cfg)
	if err != nil {
		return Report{}, err
	}
	return m.run()
}

// newMultiState builds the shared-path engine without running it (the
// allocation tests drive it step by step).
func newMultiState(cfg MultiConfig) (*multiState, error) {
	m := &multiState{
		slotClock: slotClock{tau: cfg.Tau},
		cfg:       cfg,
		ch:        channel.New(cfg.Tau, cfg.M*cfg.Tau),
		col:       metrics.OrNop(cfg.Collector),
		fo:        metrics.FaultObserverOrNop(cfg.Collector),
	}
	if cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(cfg.Faults)
		if err != nil {
			return nil, err
		}
		m.inj = inj
	}
	m.ch.Observe(cfg.Collector)
	m.rep.WaitHist = stats.NewHistogram(cfg.Tau, waitHistBins(cfg.K, cfg.Tau))
	bank, err := station.NewBank(cfg.Stations, cfg.Seed, cfg.Lambda/float64(cfg.Stations), cfg.Arrivals, cfg.workerCount())
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	bank.Observe(cfg.Collector)
	m.bank = bank
	m.tracker = window.NewTracker(0, discardConstraint(cfg.Policy, cfg.K), cfg.Policy.Discards())
	// The shared policy replica forks exactly like the per-station
	// replicas of the reference engine, so common-randomness draws match
	// it sequence for sequence.
	m.policy = cfg.Policy
	if f, ok := cfg.Policy.(window.ForkablePolicy); ok {
		m.policy = f.Fork()
	}
	m.resolver = &window.Resolver{}
	if cfg.Faults.Enabled() {
		m.resolver.SetFaultTolerant(true)
	}
	m.resolver.Observe(cfg.Collector)
	if cfg.VerifyLockstep {
		var idx []int
		m.lockEvery, idx = lockstepPlan(cfg)
		for range idx {
			r := &window.Resolver{}
			if cfg.Faults.Enabled() {
				r.SetFaultTolerant(true)
			}
			m.shadows = append(m.shadows, r)
			pol := cfg.Policy
			if f, ok := cfg.Policy.(window.ForkablePolicy); ok {
				pol = f.Fork()
			}
			m.shadowPols = append(m.shadowPols, pol)
		}
	}
	m.discardFn = func(arrival float64) {
		if m.cfg.measured(arrival) {
			m.rep.LostSender++
		}
	}
	return m, nil
}

func (m *multiState) run() (Report, error) {
	checkpoint, check := conservationStart(m.cfg.Collector)
	for m.runErr == nil && m.now < m.cfg.EndTime {
		m.step()
	}
	if m.runErr != nil {
		return m.rep, m.runErr
	}
	m.finish()
	if check != nil {
		if err := check.CheckConservation(checkpoint, m.resident, m.ch.Stats().TotalTime()); err != nil {
			return m.rep, fmt.Errorf("sim: %w", err)
		}
	}
	return m.rep, nil
}

// step runs the slot at the clock and moves the clock to the slot after
// it.
func (m *multiState) step() {
	now := m.now
	m.slot()
	if m.runErr == nil {
		m.runErr = clockStep(now, m.now)
	}
}

// clockStep checks a slot engine's move from the slot at now to the next
// one at next.  The channel is slotted, so each engine's timeline is one
// slot after another and its clock must move strictly forward to a finite
// time; a slot that breaks this is a model bug, and the error fails the
// run instead of letting it loop in place.
func clockStep(now, next float64) error {
	if now < next && next <= math.MaxFloat64 {
		return nil
	}
	return fmt.Errorf("sim: slot at t=%v is followed by one at t=%v", now, next)
}

// rejectGlobalOnly rejects the Config fields that only the global engine
// implements, which the slot engines would otherwise silently ignore.
func (c *Config) rejectGlobalOnly() error {
	switch {
	case c.TxLengths != nil:
		return fmt.Errorf("sim: TxLengths is supported by the global simulator only")
	case c.RateEstimator != nil:
		return fmt.Errorf("sim: RateEstimator is supported by the global simulator only")
	case c.ExternalArrivals:
		return fmt.Errorf("sim: ExternalArrivals is supported by the global simulator only")
	}
	return nil
}

// feedShadows distributes this slot's feedback to the verified shadow
// state machines (the test hook corrupts the last one at the configured
// probe slot).
func (m *multiState) feedShadows(fb window.Feedback) {
	if len(m.shadows) == 0 {
		return
	}
	corrupt := -1
	if m.cfg.lockstepFaultAt > 0 && m.probeSlots >= m.cfg.lockstepFaultAt {
		corrupt = len(m.shadows) - 1
	}
	for i, r := range m.shadows {
		if i == corrupt {
			r.OnFeedback(corruptFeedback(fb))
		} else {
			r.OnFeedback(fb)
		}
	}
}

// checkLockstep compares the shadow state machines against the shared
// resolver — the full state (done, outcome, examined intervals) whenever
// the process just ended, and the enabled window every lockEvery-th probe
// slot mid-process.
func (m *multiState) checkLockstep() {
	if len(m.shadows) == 0 {
		return
	}
	r0 := m.resolver
	if !r0.Done() && m.probeSlots%m.lockEvery != 0 {
		return
	}
	for i, r := range m.shadows {
		bad := r.Done() != r0.Done()
		if !bad && !r0.Done() {
			bad = r.Enabled() != r0.Enabled()
		}
		if !bad && r0.Done() {
			bad = r.Success() != r0.Success()
			ex0, ex := r0.Examined(), r.Examined()
			if !bad && len(ex) != len(ex0) {
				bad = true
			}
			if !bad {
				for j := range ex {
					if ex[j] != ex0[j] {
						bad = true
						break
					}
				}
			}
		}
		if bad {
			m.runErr = fmt.Errorf("sim: shadow station %d diverged from the shared resolver at probe slot %d — lockstep broken", i, m.probeSlots)
			return
		}
	}
}

// slot executes the protocol slot at the clock — decision epoch if
// needed, one probe, feedback distribution — and moves the clock past it.
// On failure it sets runErr and the clock is meaningless.
func (m *multiState) slot() {
	now := m.now
	m.bank.GenerateUntil(now)
	if m.runErr = m.rep.noteBacklog(&m.cfg.Config, m.bank.Len(), now); m.runErr != nil {
		return
	}

	if !m.inProcess {
		// The common decision epoch.
		v := m.decisionView(now)
		if v.TNewest-v.TPast <= 0 {
			// Nothing unexamined yet: idle for one slot.
			m.tick(1)
			return
		}
		if m.idleRun(v) || !m.beginProcess(v) {
			return
		}
	}
	m.probeSlots++

	// One station with one pending message in the window transmits;
	// several messages — at one station or many — jam the slot, so the
	// feedback depends only on the network-wide message count.
	enabled := m.resolver.Enabled()
	truth := channel.Classify(m.bank.CountIn(enabled))
	fb := truth
	if m.inj != nil {
		// Common-noise imperfect feedback: the perception passes through
		// the fault layer once for everyone, and delivery is gated on the
		// sender's perception (a sender that misreads its successful slot
		// aborts the transmission, which then costs τ as a collision slot
		// — see the internal/fault package doc).  Common noise cannot
		// desynchronize the stations, so no recovery watch is needed
		// here; per-station faults run on the dense engine.
		var kind metrics.FaultKind
		var faulted bool
		fb, kind, faulted = m.inj.Perceive(m.slotIdx, 0, truth)
		m.slotIdx++
		if faulted {
			m.fo.RecordFault(kind)
		}
	}
	delivered := truth == window.Success && fb == window.Success
	if !m.pass(delivered, enabled, m.ch.AccountSlot(truth, delivered)) {
		return
	}

	m.resolver.OnFeedback(fb)
	m.feedShadows(fb)

	if m.resolver.Done() {
		if m.resolver.Recovered() {
			m.fo.RecordRecovery()
		}
		m.tracker.Commit(m.now, m.resolver.Examined())
		m.inProcess = false
	}
	m.checkLockstep()
}

// decisionView performs the first half of the common decision epoch:
// sender discard and view construction.
func (m *multiState) decisionView(now float64) window.View {
	if m.cfg.Policy.Discards() {
		m.bank.DiscardBelowFunc(m.tracker.Horizon(now), m.discardFn)
	}
	return m.tracker.View(now, m.cfg.Tau, m.cfg.Lambda)
}

// idleRun takes a run of idle slots in one step, the global engine's
// idle skip: when nothing is pending, the feedback is perfect, no
// lockstep shadow must see the probes and the policy sweeps the
// unexamined span (sweepsSpan), the slot at the clock is certainly one
// idle probe that clears everything up to it, and so is every later slot
// that starts before EndTime and before the next arrival (a slot at or
// after it materializes it).  It returns false, changing nothing, when
// the epoch does not qualify.
func (m *multiState) idleRun(v window.View) bool {
	if m.bank.Len() != 0 || m.inj != nil || len(m.shadows) != 0 || !sweepsSpan(m.policy, v) {
		return false
	}
	k := m.slotsBefore(math.Min(m.bank.NextArrivalAt(), m.cfg.EndTime))
	m.tick(k)
	m.ch.AccountIdle(k)
	m.probeSlots += k
	m.idleRuns++
	m.runScratch[0] = window.Window{Start: v.TPast, End: m.last()}
	m.tracker.Commit(m.now, m.runScratch[:])
	return true
}

// beginProcess performs the second half of the common decision epoch,
// recycling the resolver (and the lockstep shadows) for view v.  It
// returns false when the run has failed.
func (m *multiState) beginProcess(v window.View) bool {
	if m.inj != nil {
		// Phantom-split give-up bound: false collisions otherwise
		// spiral to the depth bound (see globalState.resolveFaulty).
		v.MinSplitLen = m.cfg.Tau / 1024
	}
	if err := m.resolver.Reset(m.policy, v); err != nil {
		m.runErr = fmt.Errorf("sim: resolver: %w", err)
		return false
	}
	for i, r := range m.shadows {
		if err := r.Reset(m.shadowPols[i], v); err != nil {
			m.runErr = fmt.Errorf("sim: shadow resolver %d: %w", i, err)
			return false
		}
	}
	m.inProcess = true
	return true
}

// pass moves the clock past the probe slot just booked on the channel,
// which lasted dur: a τ-slot, or a delivered transmission of the message
// the slot's window enabled.  It returns false when the run has failed.
func (m *multiState) pass(delivered bool, enabled window.Window, dur float64) bool {
	if !delivered {
		m.tick(1)
		return true
	}
	arrival, _, ok := m.bank.PopOldestIn(enabled)
	if !ok {
		m.runErr = fmt.Errorf("sim: success with no pending message in %v", enabled)
		return false
	}
	m.rep.transmit(&m.slotClock, m.col, m.cfg.K, arrival, m.cfg.measured(arrival), dur)
	return true
}

func (m *multiState) finish() {
	end := m.cfg.EndTime
	m.bank.ForEach(func(arrival float64, _ int32) {
		m.resident++
		if !m.cfg.measured(arrival) {
			return
		}
		if end-arrival > m.cfg.K {
			m.rep.LostPending++
		} else {
			m.rep.Censored++
		}
		m.rep.EndBacklog++
	})
	m.col.RecordEndPending(m.rep.LostPending, m.rep.Censored)
	m.rep.finishFromChannel(m.ch)
}
