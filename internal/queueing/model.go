package queueing

import (
	"fmt"
	"math"
	"sync"

	"windowctl/internal/dist"
	"windowctl/internal/sched"
)

// SchedulingMode selects how the windowing-overhead component of the
// service time is modelled.
type SchedulingMode int

// SchedulingMode values.
const (
	// GeometricScheduling uses the paper-faithful [Kurose 83] model: a
	// geometric number of wasted slots with the analytically computed
	// mean.
	GeometricScheduling SchedulingMode = iota
	// ExactScheduling uses the exact slot-count distribution computed by
	// internal/sched — a fidelity upgrade over the 1983 approximation.
	ExactScheduling
)

// ProtocolModel maps a window-protocol operating point, in the paper's
// parameterization, onto the analytic queueing models:
//
//   - τ (Tau): the slot time, the end-to-end propagation delay;
//   - M: the fixed message length in units of τ;
//   - ρ′ (RhoPrime): the normalized offered channel load λ′·M·τ, counting
//     every message, lost or not.
//
// The initial window length follows the element-(2) heuristic: content
// G* ≈ argmin of mean windowing time per scheduled message, capped so the
// window never exceeds the unexamined span (at most K under element (4)).
type ProtocolModel struct {
	// Tau is the slot time; must be positive.
	Tau float64
	// M is the message length in slots; must be positive.
	M float64
	// RhoPrime is the normalized offered load λ′·M·τ; must be positive.
	RhoPrime float64
	// Mode selects the scheduling-time model (default geometric).
	Mode SchedulingMode
	// IncludeEmptyProbes counts empty initial windows as service time too.
	// The default (false) attributes them to server idle time, which is
	// exact in the K → 0 limit and differs by < 0.4·τ per message
	// elsewhere; see internal/sched.ResolutionSlotPMF.
	IncludeEmptyProbes bool
	// TxDist, when non-nil, replaces the paper's fixed transmission time
	// M·τ with a general i.i.d. message-length law (its mean should be
	// M·τ so RhoPrime keeps its meaning).  Theorem 1 needs only
	// identically distributed lengths, so the controlled analysis still
	// applies; the service law becomes windowing overhead + TxDist.
	TxDist dist.Distribution
}

var optimalGOnce struct {
	sync.Once
	g float64
}

// OptimalWindowContent returns the pure number G* minimizing the mean
// windowing time per scheduled message (the element-(2) heuristic),
// computed once and cached.
func OptimalWindowContent() float64 {
	optimalGOnce.Do(func() {
		optimalGOnce.g, _ = sched.OptimalG()
	})
	return optimalGOnce.g
}

func (m ProtocolModel) validate() error {
	if m.Tau <= 0 || m.M <= 0 || m.RhoPrime <= 0 {
		return fmt.Errorf("queueing: ProtocolModel needs positive Tau, M, RhoPrime (got %v, %v, %v)",
			m.Tau, m.M, m.RhoPrime)
	}
	return nil
}

// Lambda returns the total message arrival rate λ′ = ρ′/(M·τ).
func (m ProtocolModel) Lambda() float64 { return m.RhoPrime / (m.M * m.Tau) }

// WindowContent returns the mean window content G actually used at
// constraint K: the optimum G*, reduced when element (4) caps the
// unexamined span (and hence the window) at K.
func (m ProtocolModel) WindowContent(k float64) float64 {
	g := OptimalWindowContent()
	if spanContent := m.Lambda() * k; spanContent < g {
		return spanContent
	}
	return g
}

// Service builds the service-time law for mean window content g > 0:
// windowing overhead plus the transmission time (the fixed M·τ, or TxDist
// when set).
func (m ProtocolModel) Service(g float64) (dist.Distribution, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	tx := m.M * m.Tau
	if g <= 0 {
		if m.TxDist != nil {
			return m.TxDist, nil
		}
		return dist.NewDeterministic(tx), nil
	}
	// Build the scheduling-overhead law (a lattice of wasted slots).
	var overhead dist.Distribution
	switch m.Mode {
	case GeometricScheduling:
		o := sched.Analyze(g)
		meanSlots := o.ResolutionSlots
		if m.IncludeEmptyProbes {
			meanSlots = o.TotalSlots()
		}
		overhead = dist.NewGeometricLattice(meanSlots, m.Tau)
	case ExactScheduling:
		const maxSlots = 512 // truncation of the exact slot-count law
		var pmf []float64
		if m.IncludeEmptyProbes {
			pmf = sched.SlotPMF(g, maxSlots)
		} else {
			pmf = sched.ResolutionSlotPMF(g, maxSlots)
		}
		xs := make([]float64, len(pmf))
		for j := range pmf {
			xs[j] = float64(j) * m.Tau
		}
		emp, err := dist.NewEmpirical(xs, pmf)
		if err != nil {
			return nil, err
		}
		overhead = emp
	default:
		return nil, fmt.Errorf("queueing: unknown scheduling mode %d", m.Mode)
	}
	if m.TxDist == nil {
		return dist.NewShifted(overhead, tx), nil
	}
	atoms, err := dist.Atomize(overhead, 1e-12)
	if err != nil {
		return nil, fmt.Errorf("queueing: composing service with random lengths: %w", err)
	}
	return dist.NewAtomicSum(atoms, m.TxDist)
}

// ControlledLoss evaluates the paper's equation 4.7 for the controlled
// protocol at constraint K: the distributed queue under optimal elements
// (1), (3), (4) is the impatient M/G/1 queue.
func (m ProtocolModel) ControlledLoss(k float64) (Result, error) {
	if err := m.validate(); err != nil {
		return Result{}, err
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("queueing: constraint K=%v must be positive", k)
	}
	svc, err := m.Service(m.WindowContent(k))
	if err != nil {
		return Result{}, err
	}
	q := ImpatientMG1{Lambda: m.Lambda(), Service: svc}
	return q.Solve(k)
}

// Curves selects the analytic curves LossGrids solves.
type Curves uint8

// Curves values; combine them with |.
const (
	CurveControlled Curves = 1 << iota // eq 4.7
	CurveFCFS                          // the Beneš series
	CurveLCFS                          // the transform inversion
	AllCurves       = CurveControlled | CurveFCFS | CurveLCFS
)

// GridLosses carries the analytic loss curves of one constraint grid —
// with AllCurves, the full analytic content of a figure-7 panel.
type GridLosses struct {
	// Controlled is the eq 4.7 result at each constraint.
	Controlled []Result
	// FCFS and LCFS are the baseline losses; NaN-filled when the
	// uncontrolled queue is unstable (ρ ≥ 1, no steady state) or, for
	// LCFS, when the transform inversion fails at a point.
	FCFS, LCFS []float64
	// A curve LossGrids was not asked for is nil.
}

// LossGrids evaluates the curves of want on one constraint grid with
// maximal convolution sharing, and is the package's only multi-K solver.
// The i-fold convolutions β⁽ⁱ⁾ of the residual service density do not
// depend on K, so every constraint on the same service law and quadrature
// grid shares one convolution series: element (4) caps the controlled
// window at λ′K below G*, so short constraints carry their own service
// law while everything at or above G*/λ′ shares one, and with the spacing
// min(K, E[X])/512 every constraint at or above the mean service time
// shares one grid.  The eq 4.7 z-series and the FCFS Beneš series
// integrate powers of the *same* β wherever the controlled window is
// uncapped (G = G*, the window content the baselines always use), so both
// curves ride a single series there.  Each request stops by its own rule,
// so a value differs from its per-K solve only by the rounding of the
// longer tabulation.  The baselines are not solved at all when the
// uncontrolled queue is unstable.  When the call succeeds, a curve's
// values do not depend on which other curves are in want.  A NaN or
// infinite constraint, or one whose quadrature grid would be too large,
// is an error.  This is the analytic engine behind the sweep's analytic
// column, and so behind the figure-7 panels, which are views over
// sweep.Run.
func (m ProtocolModel) LossGrids(ks []float64, want Curves) (GridLosses, error) {
	if err := m.validate(); err != nil {
		return GridLosses{}, err
	}
	for _, k := range ks {
		if k <= 0 {
			return GridLosses{}, fmt.Errorf("queueing: constraint K=%v must be positive", k)
		}
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return GridLosses{}, gridError(k, k)
		}
	}
	nanFilled := func() []float64 {
		v := make([]float64, len(ks))
		for i := range v {
			v[i] = math.NaN()
		}
		return v
	}
	var out GridLosses
	if want&CurveControlled != 0 {
		out.Controlled = make([]Result, len(ks))
	}
	if want&CurveFCFS != 0 {
		out.FCFS = nanFilled()
	}
	if want&CurveLCFS != 0 {
		out.LCFS = nanFilled()
	}
	lambda := m.Lambda()
	gStar := OptimalWindowContent()

	// One service law per distinct window content, built lazily.
	type lawInfo struct {
		svc  dist.Distribution
		xbar float64
	}
	laws := map[float64]lawInfo{}
	lawFor := func(g float64) (lawInfo, error) {
		if l, ok := laws[g]; ok {
			return l, nil
		}
		svc, err := m.Service(g)
		if err != nil {
			return lawInfo{}, err
		}
		l := lawInfo{svc: svc, xbar: svc.Mean()}
		laws[g] = l
		return l, nil
	}
	// The baselines run on the uncapped law G*; an unstable one has no
	// steady state, so its curves stay NaN.
	var base MG1
	fcfs, lcfs := out.FCFS != nil, out.LCFS != nil
	if fcfs || lcfs {
		var err error
		if base, err = m.baselineQueue(); err != nil {
			return GridLosses{}, err
		}
		laws[gStar] = lawInfo{svc: base.Service, xbar: base.Service.Mean()}
		if base.Rho() >= 1 {
			fcfs, lcfs = false, false
		}
	}

	// Bucket the work by (window content, quadrature step): every request
	// in a bucket shares one β tabulation and one convolution series.
	type bucketKey struct{ g, step float64 }
	type bucket struct {
		key  bucketKey
		ctrl []int // constraint indices wanting the z-series
		fcfs []int // constraint indices wanting the Beneš series
	}
	var buckets []*bucket
	byKey := map[bucketKey]*bucket{}
	add := func(g float64, i int, fcfs bool) error {
		law, err := lawFor(g)
		if err != nil {
			return err
		}
		step, err := gridStep(ks[i], law.xbar)
		if err != nil {
			return err
		}
		key := bucketKey{g: g, step: step}
		b, ok := byKey[key]
		if !ok {
			b = &bucket{key: key}
			byKey[key] = b
			buckets = append(buckets, b)
		}
		if fcfs {
			b.fcfs = append(b.fcfs, i)
		} else {
			b.ctrl = append(b.ctrl, i)
		}
		return nil
	}
	for i, k := range ks {
		if out.Controlled != nil {
			if err := add(m.WindowContent(k), i, false); err != nil {
				return GridLosses{}, err
			}
		}
		if fcfs {
			if err := add(gStar, i, true); err != nil {
				return GridLosses{}, err
			}
		}
	}

	for _, b := range buckets {
		law := laws[b.key.g]
		rho := lambda * law.xbar
		reqs := make([]*seriesReq, 0, len(b.ctrl)+len(b.fcfs))
		for _, i := range b.ctrl {
			reqs = append(reqs, &seriesReq{k: ks[i], controlled: true})
		}
		for _, i := range b.fcfs {
			reqs = append(reqs, &seriesReq{k: ks[i]})
		}
		if err := runSeries(rho, law.svc, b.key.step, reqs); err != nil {
			if len(b.ctrl) > 0 {
				return GridLosses{}, err
			}
			continue // baseline-only bucket: leave those FCFS points NaN
		}
		for n, i := range b.ctrl {
			out.Controlled[i] = reqs[n].result(rho)
		}
		for n, i := range b.fcfs {
			out.FCFS[i] = reqs[len(b.ctrl)+n].fcfsLoss(rho)
		}
	}

	if lcfs {
		for i, k := range ks {
			if loss, err := base.LossLCFS(k); err == nil {
				out.LCFS[i] = loss
			}
		}
	}
	return out, nil
}

// Capacity returns the maximum sustainable offered load ρ′_max of the
// window protocol for message length M (in slots): the load at which the
// arrival rate equals the service rate including windowing overhead,
//
//	λ_max·(s̄(G*)·τ + M·τ) = 1  ⇒  ρ′_max = M / (s̄(G*) + M),
//
// where s̄(G*) is the mean wasted slots per scheduled message at the
// optimal window content.  This is the protocol's counterpart of the
// classic splitting-algorithm throughput figures: it tends to 1 as
// M → ∞ (overhead amortizes) and shrinks for short messages.  Beyond
// this load the *uncontrolled* protocols diverge; the controlled one
// sheds the excess at the sender instead.
func Capacity(mSlots float64) float64 {
	if mSlots <= 0 {
		panic("queueing: Capacity needs positive message length")
	}
	sbar := sched.Analyze(OptimalWindowContent()).TotalSlots()
	return mSlots / (sbar + mSlots)
}

// ControlledLossCurve evaluates equation 4.7 over an ascending grid of
// constraints using the paper's §4.1 *coupled* iteration: the scheduling
// component of the service time depends on the fraction of messages that
// actually get scheduled, so the loss at the n-th constraint is computed
// with the accepted fraction from the (n−1)-st, starting from the K → 0
// boundary where the scheduling delay is exactly zero.  Concretely, the
// window content at step n is G_n = min(G*, λ′·(1−p_{n−1})·K_n): the
// unexamined span near the horizon carries only messages that have not
// already been discarded.
func (m ProtocolModel) ControlledLossCurve(ks []float64) ([]Result, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	for i, k := range ks {
		if k <= 0 {
			return nil, fmt.Errorf("queueing: constraint %v must be positive", k)
		}
		if i > 0 && ks[i] <= ks[i-1] {
			return nil, fmt.Errorf("queueing: constraints must ascend (%v after %v)", ks[i], ks[i-1])
		}
	}
	// K → 0 boundary: no scheduling, service = M·τ, loss = ρ/(1+ρ).
	rho0 := m.RhoPrime
	prevLoss := rho0 / (1 + rho0)
	gStar := OptimalWindowContent()
	out := make([]Result, 0, len(ks))
	for _, k := range ks {
		g := m.Lambda() * (1 - prevLoss) * k
		if g > gStar {
			g = gStar
		}
		svc, err := m.Service(g)
		if err != nil {
			return nil, err
		}
		q := ImpatientMG1{Lambda: m.Lambda(), Service: svc}
		res, err := q.Solve(k)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		prevLoss = res.Loss
	}
	return out, nil
}

// baselineQueue builds the plain M/G/1 for the uncontrolled protocols: no
// element (4), so the window length is not K-capped and uses G*.
func (m ProtocolModel) baselineQueue() (MG1, error) {
	if err := m.validate(); err != nil {
		return MG1{}, err
	}
	svc, err := m.Service(OptimalWindowContent())
	if err != nil {
		return MG1{}, err
	}
	return MG1{Lambda: m.Lambda(), Service: svc}, nil
}

// FCFSLoss returns the loss P(W > K) of the uncontrolled FCFS window
// protocol of [Kurose 83].
func (m ProtocolModel) FCFSLoss(k float64) (float64, error) {
	q, err := m.baselineQueue()
	if err != nil {
		return 0, err
	}
	return q.LossFCFS(k)
}

// LCFSLoss returns the loss P(W > K) of the uncontrolled LCFS window
// protocol of [Kurose 83].
func (m ProtocolModel) LCFSLoss(k float64) (float64, error) {
	q, err := m.baselineQueue()
	if err != nil {
		return 0, err
	}
	return q.LossLCFS(k)
}
