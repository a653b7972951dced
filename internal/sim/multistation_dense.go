package sim

import (
	"fmt"
	"slices"

	"windowctl/internal/channel"
	"windowctl/internal/fault"
	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
	"windowctl/internal/station"
	"windowctl/internal/stats"
	"windowctl/internal/window"
)

// denseState is the one-object-per-station engine: every station runs its
// own Tracker and Resolver fed only by channel feedback, exactly as the
// protocol prescribes.  Its per-slot cost is O(M), so it serves the cases
// the shared path (the global engine) cannot represent — per-station
// feedback faults, where stations genuinely perceive different channels
// and their state machines diverge, and RunHeterogeneous's per-station
// membership Transforms, where a station answers a probe for its own
// view of the enabled window (nil means the common window) — and acts as
// the reference implementation the shared path is verified against
// bit-for-bit.  The report is also partitioned per station.
//
// Its arrivals come from the shared path's source: RunGlobal's Poisson gap
// stream, each arrival marked with a uniformly drawn station (a stream of
// its own, spawned from the seed), or the station bank of
// MultiConfig.Arrivals.  Feedback depends only on which arrival times lie
// in a window, so the engine reproduces the shared path whatever station
// holds each message.
//
// It always verifies the distributed-consistency property the protocol
// rests on, sampled: a few stations' resolvers are compared with station
// 0's every lockEvery probe slots and at every process end
// (verifySampledLockstep).
//
// A station holding two or more pending messages inside the enabled
// window jams the slot (it cannot transmit both), so channel feedback
// reflects the network-wide *message* count in the window, matching the
// paper's model in which message arrivals, not stations, are the
// windowed entities.
//
// The O(M) per-station loops — window membership counting, feedback
// fan-out, resolver recycling and tracker commits — shard across
// MultiConfig.Workers via the pool, with order-independent merges (sum,
// max index, first error), so reports are bit-identical at any width.
type denseState struct {
	slotClock // the clock: now is the time of the next slot to run
	cfg       MultiConfig
	ch        *channel.Channel
	stations  []*station.Station
	arr       arrivalStream
	trackers  []*window.Tracker
	resolvers []*window.Resolver // persistent, recycled via Reset each epoch
	inProcess bool               // a windowing process is underway
	policies  []window.Policy    // per-station replica (common randomness)
	col       metrics.Collector
	inj       *fault.Injector // nil unless fault injection is enabled
	fo        metrics.FaultObserver
	slotIdx   int64 // probe-slot counter indexing the fault schedule
	perceived []window.Feedback
	// transforms holds each station's membership Transform; nil unless
	// some station's is set (see member).
	transforms []Transform
	rep        HeterogeneousReport
	resident   int64 // messages still queued anywhere when the run ended
	runErr     error
	discardFn  func(station.Message)

	pool       *pool
	lockEvery  int64
	lockIdx    []int // sampled station indices for lockstep verification
	probeSlots int64

	// Shard scratch and parameters for the pooled loops.  The loop
	// closures are bound once and read these fields, so a slot does not
	// allocate a closure per fan-out.
	wTotal      []int
	wTx         []int
	wErr        []error
	curEnabled  window.Window
	curFb       window.Feedback
	curNow      float64
	curEnd      float64
	curExamined []window.Window
	countFn     func(w, lo, hi int) // CountIn over each station's view of the common enabled window
	countOwnFn  func(w, lo, hi int) // CountIn over each station's view of its resolver's window
	feedFn      func(w, lo, hi int) // OnFeedback(curFb) fan-out
	feedOwnFn   func(w, lo, hi int) // OnFeedback(perceived[i]) fan-out
	resetFn     func(w, lo, hi int) // resolver Reset at curNow
	commitFn    func(w, lo, hi int) // tracker Commit(curEnd, curExamined)
}

// runMultiDense simulates with full per-station state; transforms, when
// non-nil, holds one membership Transform per station.  cfg is already
// validated.
func runMultiDense(cfg MultiConfig, transforms []Transform) (HeterogeneousReport, error) {
	m := &denseState{
		slotClock: slotClock{tau: cfg.Tau},
		cfg:       cfg,
		ch:        channel.New(cfg.Tau, cfg.M*cfg.Tau),
		col:       metrics.OrNop(cfg.Collector),
		fo:        metrics.FaultObserverOrNop(cfg.Collector),
		pool:      newPool(cfg.workerCount()),
	}
	defer m.pool.close()
	if cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(cfg.Faults)
		if err != nil {
			return HeterogeneousReport{}, err
		}
		m.inj = inj
		m.perceived = make([]window.Feedback, cfg.Stations)
	}
	// Slots are recorded by the channel; the collector sees the same event
	// stream the global-view simulator reports directly.
	m.ch.Observe(cfg.Collector)
	m.rep.WaitHist = stats.NewHistogram(cfg.Tau, waitHistBins(cfg.K, cfg.Tau))
	m.rep.Stations = make([]StationReport, cfg.Stations)
	for _, tr := range transforms {
		if tr != nil {
			m.transforms = transforms
			break
		}
	}
	bank, err := cfg.bank()
	if err != nil {
		return HeterogeneousReport{}, err
	}
	gaps := rngutil.New(cfg.Seed)
	m.arr = arrivalStream{gaps: gaps, rate: cfg.Lambda, label: gaps.Spawn(), stations: cfg.Stations, bank: bank}
	m.arr.advance()
	for i := 0; i < cfg.Stations; i++ {
		m.stations = append(m.stations, station.New(i))
		m.trackers = append(m.trackers, window.NewTracker(0, discardConstraint(cfg.Policy, cfg.K), cfg.Policy.Discards()))
		// A policy carrying common randomness is replicated per station:
		// each replica makes the same draw sequence, as real stations
		// seeded with one agreed value would.
		if f, ok := cfg.Policy.(window.ForkablePolicy); ok {
			m.policies = append(m.policies, f.Fork())
		} else {
			m.policies = append(m.policies, cfg.Policy)
		}
	}
	m.resolvers = make([]*window.Resolver, cfg.Stations)
	for i := range m.resolvers {
		m.resolvers[i] = &window.Resolver{}
		if cfg.Faults.Enabled() {
			m.resolvers[i].SetFaultTolerant(true)
		}
	}
	// Only one of the (identical, lockstep) resolvers observes, or every
	// split would be counted once per station.
	m.resolvers[0].Observe(cfg.Collector)
	m.discardFn = func(d station.Message) {
		if m.cfg.measured(d.Arrival) {
			m.rep.LostSender++
			m.rep.Stations[d.Origin].LostSender++
		}
	}
	m.lockEvery, m.lockIdx = lockstepPlan(cfg)
	m.bindShardFns()

	checkpoint, check := conservationStart(cfg.Collector)
	for m.runErr == nil && (m.now < cfg.EndTime || m.inProcess) {
		now := m.now
		m.slot()
		if m.runErr == nil {
			m.runErr = clockStep(now, m.now)
		}
	}
	if m.runErr != nil {
		return m.rep, m.runErr
	}
	m.finish()
	if check != nil {
		if err := check.CheckConservation(checkpoint, m.resident, m.now); err != nil {
			return m.rep, fmt.Errorf("sim: %w", err)
		}
	}
	return m.rep, nil
}

// bindShardFns builds the pooled loop bodies once.  Each writes only its
// own stations' state and its own worker scratch slot.
func (m *denseState) bindShardFns() {
	w := m.pool.workers
	m.wTotal = make([]int, w)
	m.wTx = make([]int, w)
	m.wErr = make([]error, w)
	m.countFn = func(w, lo, hi int) {
		total, tx := 0, -1
		for i := lo; i < hi; i++ {
			if c := m.stations[i].CountIn(m.member(i, m.curEnabled)); c > 0 {
				total += c
				tx = i
			}
		}
		m.wTotal[w], m.wTx[w] = total, tx
	}
	m.countOwnFn = func(w, lo, hi int) {
		total, tx := 0, -1
		for i := lo; i < hi; i++ {
			if c := m.stations[i].CountIn(m.member(i, m.resolvers[i].Enabled())); c > 0 {
				total += c
				tx = i
			}
		}
		m.wTotal[w], m.wTx[w] = total, tx
	}
	m.feedFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			m.resolvers[i].OnFeedback(m.curFb)
		}
	}
	m.feedOwnFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			m.resolvers[i].OnFeedback(m.perceived[i])
		}
	}
	m.resetFn = func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := m.trackers[i].View(m.curNow, m.cfg.Tau, m.cfg.Lambda)
			if m.inj != nil || m.transforms != nil {
				// Phantom-split give-up bound: false collisions, or
				// stations answering probes by a perturbed window,
				// otherwise spiral to the depth bound (see
				// globalState.resolveFaulty).
				v.MinSplitLen = m.cfg.Tau / 1024
			}
			if err := m.resolvers[i].Reset(m.policies[i], v); err != nil {
				m.wErr[w] = fmt.Errorf("sim: station %d resolver: %w", i, err)
				return
			}
		}
	}
	m.commitFn = func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			m.trackers[i].Commit(m.curEnd, m.curExamined)
		}
	}
}

// member returns the window station i answers when the common protocol
// enables w: w itself unless the station has a membership Transform.
func (m *denseState) member(i int, w window.Window) window.Window {
	if m.transforms == nil || m.transforms[i] == nil {
		return w
	}
	return m.transforms[i](w)
}

// countAll merges the pooled membership count: the network-wide message
// total and the highest-index station holding any (the unique sender
// whenever the total is 1).
func (m *denseState) countAll(fn func(w, lo, hi int)) (total, txStation int) {
	for w := range m.wTotal {
		m.wTotal[w], m.wTx[w] = 0, -1
	}
	m.pool.run(len(m.stations), fn)
	txStation = -1
	for w := range m.wTotal {
		total += m.wTotal[w]
		if m.wTx[w] >= 0 {
			txStation = m.wTx[w]
		}
	}
	return total, txStation
}

// lockstepPlan resolves the sampled lockstep check: the probe-slot period
// of the comparison and the verified station indices, spread evenly over
// the population from station 0 on.
func lockstepPlan(cfg MultiConfig) (every int64, idx []int) {
	every = int64(cfg.lockstepEvery)
	if every <= 0 {
		every = 64
	}
	sample := cfg.lockstepSample
	if sample <= 0 {
		sample = 4
	}
	sample = min(sample, cfg.Stations)
	stride := cfg.Stations / sample
	for k := 0; k < sample; k++ {
		idx = append(idx, k*stride)
	}
	return every, idx
}

// verifySampledLockstep asserts, after a slot's feedback, that the
// sampled stations' resolvers agree with station 0's (disagrees).  It
// runs every lockEvery-th probe slot and at every process end rather than
// every slot, and over the sample rather than all M stations — the
// consistency it guards is global (all stations process identical
// feedback), so a divergence persists until a sampled comparison sees it.
func (m *denseState) verifySampledLockstep() bool {
	if !m.resolvers[0].Done() && m.probeSlots%m.lockEvery != 0 {
		return true
	}
	for _, i := range m.lockIdx {
		if m.disagrees(m.resolvers[i]) {
			m.runErr = fmt.Errorf("sim: station %d diverged from station 0 at probe slot %d — lockstep broken", i, m.probeSlots)
			return false
		}
	}
	return true
}

// corruptFeedback implements the test-only desync injection hook: the
// last sampled station's resolver is fed a flipped feedback value.
func corruptFeedback(fb window.Feedback) window.Feedback {
	if fb == window.Collision {
		return window.Idle
	}
	return window.Collision
}

// slot executes the protocol slot at the clock — decision epoch if
// needed, one probe, feedback distribution — and moves the clock past it.
// On failure it sets runErr and the clock is meaningless.
func (m *denseState) slot() {
	if !m.inProcess {
		// Decision epoch at every station: arrivals materialize here.
		now := m.now
		added := int64(0)
		for ; m.arr.at <= now; m.arr.advance() {
			m.stations[m.arr.origin].Push(m.arr.at)
			added++
		}
		if added > 0 {
			m.col.RecordArrivals(added)
		}
		backlog := 0
		for _, s := range m.stations {
			backlog += s.QueueLen()
		}
		if m.runErr = m.rep.noteBacklog(&m.cfg.Config, backlog, now); m.runErr != nil {
			return
		}
		if !m.beginProcess(now) {
			m.corner(m.col)
			return
		}
	}
	m.probeSlots++

	if m.inj != nil {
		m.faultySlot()
		return
	}

	// Stations transmit; multiple messages at one station jam the slot.
	m.curEnabled = m.resolvers[0].Enabled()
	totalMsgs, txStation := m.countAll(m.countFn)
	fb, dur := m.ch.ResolveSlot(totalMsgs)

	if n := len(m.lockIdx); n > 0 && m.cfg.lockstepFaultAt > 0 && m.probeSlots >= m.cfg.lockstepFaultAt {
		for i, r := range m.resolvers {
			if i == m.lockIdx[n-1] {
				r.OnFeedback(corruptFeedback(fb))
			} else {
				r.OnFeedback(fb)
			}
		}
	} else {
		m.curFb = fb
		m.pool.run(len(m.resolvers), m.feedFn)
	}
	if !m.verifySampledLockstep() {
		return
	}

	if !m.pass(fb == window.Success, txStation, m.curEnabled, dur) {
		return
	}
	if m.resolvers[0].Done() {
		m.commitAll()
	}
}

// faultySlot executes one protocol slot under imperfect feedback: the
// channel classifies the true outcome, every station perceives it through
// the fault layer (independently under Config.Faults.PerStation), message
// delivery is gated on the *sender's own* perception (a sender that
// misreads its successful slot aborts the transmission, which then costs
// τ as a collision slot — see the internal/fault package doc), and the
// engine watches for desynchronization, answering it with the network-
// wide recovery protocol: every station aborts its process, nothing is
// committed, and the next decision epoch re-enables the window from the
// common pre-process state, with element-(4) deadline discards still
// enforced on whatever the re-enabled window holds.  It moves the clock
// past the slot.
func (m *denseState) faultySlot() {
	// Each station transmits by its own resolver's view.  The views agree
	// whenever this point is reached: desynchronization is detected and
	// recovered in the very slot it first manifests, before it can drive
	// divergent transmission decisions.
	totalMsgs, txStation := m.countAll(m.countOwnFn)
	truth := channel.Classify(totalMsgs)
	slot := m.slotIdx
	m.slotIdx++
	if m.inj.PerStation() {
		// Independent per-station sensing: each misread is its own fault.
		for i := range m.stations {
			fb, kind, faulted := m.inj.Perceive(slot, i, truth)
			m.perceived[i] = fb
			if faulted {
				m.fo.RecordFault(kind)
			}
		}
	} else {
		// Common noise: the slot is corrupted once, for everyone.
		fb, kind, faulted := m.inj.Perceive(slot, 0, truth)
		if faulted {
			m.fo.RecordFault(kind)
		}
		for i := range m.perceived {
			m.perceived[i] = fb
		}
	}

	delivered := truth == window.Success && m.perceived[txStation] == window.Success
	var enabled window.Window
	if delivered {
		enabled = m.resolvers[txStation].Enabled()
	}
	if !m.pass(delivered, txStation, enabled, m.ch.AccountSlot(truth, delivered)) {
		return
	}

	m.pool.run(len(m.resolvers), m.feedOwnFn)

	switch {
	case m.inj.PerStation() && m.desynced():
		m.fo.RecordDesync()
		m.fo.RecordRecovery()
		for _, r := range m.resolvers {
			r.Abort()
		}
		m.inProcess = false // commit nothing: trackers stay at the common pre-process state
	case !m.inj.PerStation() && !m.verifySampledLockstep():
		return // shared perception preserves lockstep: the run has failed
	case m.resolvers[0].Done():
		if m.resolvers[0].Recovered() {
			m.fo.RecordRecovery()
		}
		m.commitAll()
	}
}

// commitAll ends the windowing process: every station's tracker commits
// station 0's examined windows at the clock.
func (m *denseState) commitAll() {
	m.curEnd = m.now
	m.curExamined = m.resolvers[0].Examined()
	m.pool.run(len(m.trackers), m.commitFn)
	m.inProcess = false
}

// desynced reports whether any station's resolver disagrees with station
// 0's after this slot's feedback.
func (m *denseState) desynced() bool {
	for _, r := range m.resolvers[1:] {
		if m.disagrees(r) {
			return true
		}
	}
	return false
}

// disagrees reports whether r disagrees with station 0's resolver after
// this slot's feedback: mid-process both must enable the same window and
// agree on being unfinished; at process end both must agree on the
// outcome and on the intervals they examined.  The end-state comparison
// matters because stations perceiving different feedback can finish the
// same slot in *silently* divergent states (one marks the window
// examined after a perceived success while another released it after an
// erasure) — committing either view would fork the trackers for good.
func (m *denseState) disagrees(r *window.Resolver) bool {
	r0 := m.resolvers[0]
	switch {
	case r.Done() != r0.Done():
		return true
	case !r0.Done():
		return r.Enabled() != r0.Enabled()
	case r.Success() != r0.Success():
		return true
	}
	return !slices.Equal(r.Examined(), r0.Examined())
}

// beginProcess performs the common decision epoch: sender discard, view
// construction and resolver recycling at every station.  It returns false
// when there is nothing to examine yet.
func (m *denseState) beginProcess(now float64) bool {
	if m.cfg.Policy.Discards() {
		for i, s := range m.stations {
			if n := s.DiscardArrivedBeforeFunc(m.trackers[i].Horizon(now), m.discardFn); n > 0 {
				m.col.RecordDiscards(int64(n))
			}
		}
	}
	view := m.trackers[0].View(now, m.cfg.Tau, m.cfg.Lambda)
	if view.TNewest-view.TPast <= 0 {
		return false
	}
	for w := range m.wErr {
		m.wErr[w] = nil
	}
	m.curNow = now
	m.pool.run(len(m.stations), m.resetFn)
	for _, err := range m.wErr {
		if err != nil {
			m.runErr = err
			return false
		}
	}
	m.inProcess = true
	return true
}

// pass moves the clock past the probe slot just booked on the channel,
// which lasted dur: a τ-slot, or a delivered transmission by sender of
// its message in (its view of) the enabled window.  It returns false
// when the run has failed.
func (m *denseState) pass(delivered bool, sender int, enabled window.Window, dur float64) bool {
	if !delivered {
		m.tick(1)
		return true
	}
	w := m.member(sender, enabled)
	msg, ok := m.stations[sender].PopOldestIn(w)
	if !ok {
		m.runErr = fmt.Errorf("sim: station %d vanished message in %v", sender, w)
		return false
	}
	measured := m.cfg.measured(msg.Arrival)
	wait := m.rep.transmit(&m.slotClock, m.col, m.cfg.K, msg.Arrival, measured, dur)
	if measured {
		sr := &m.rep.Stations[sender]
		sr.TrueWait.Add(wait)
		if wait > m.cfg.K {
			sr.LostLate++
		} else {
			sr.AcceptedInTime++
		}
	}
	return true
}

func (m *denseState) finish() {
	end := m.cfg.EndTime
	all := window.Window{Start: 0, End: end + 1}
	for i, s := range m.stations {
		for {
			msg, ok := s.PopOldestIn(all)
			if !ok {
				break
			}
			m.resident++
			if !m.cfg.measured(msg.Arrival) {
				continue
			}
			if end-msg.Arrival > m.cfg.K {
				m.rep.LostPending++
				m.rep.Stations[i].LostPending++
			} else {
				m.rep.Censored++
			}
		}
	}
	m.rep.EndBacklog = int(m.resident)
	m.col.RecordEndPending(m.rep.LostPending, m.rep.Censored)
	m.rep.finishFromChannel(m.ch)
	// Every measured message lands in exactly one outcome bucket, so the
	// offered count is their sum (the global engine, which counts it at
	// arrival, verifies the identity Offered = Decided + Censored).
	m.rep.Offered = m.rep.Decided() + m.rep.Censored
	for i := range m.rep.Stations {
		sr := &m.rep.Stations[i]
		sr.Offered = sr.AcceptedInTime + sr.LostSender + sr.LostLate + sr.LostPending
	}
}
