package sweep

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"windowctl/internal/core"
	"windowctl/internal/fault"
	"windowctl/internal/metrics"
	"windowctl/internal/queueing"
)

// Options tunes a sweep run.
type Options struct {
	// Workers is the number of goroutines that take tasks from the
	// run's queue (group analytic solves, then point simulations); 0
	// means GOMAXPROCS, 1 means serial.  The outcomes are bit-identical
	// at every worker count: each point's random streams derive from its
	// identity, and its analytic column from its space, never from
	// scheduling order.
	Workers int
	// Cache, when non-nil, answers points from the content-addressed
	// store and persists every freshly computed result.  Nil disables
	// caching entirely.
	Cache *Cache
	// MaxPoints, when positive, is the evaluation budget: Run refuses a
	// space that enumerates to more points, before doing any work.  A
	// guard against accidentally launching a week-long grid.
	MaxPoints int
	// FlushEvery bounds how many freshly computed results may sit
	// unflushed in the cache buffer; 0 means 4096.  A crashed sweep
	// loses at most this many points.
	FlushEvery int
	// Metrics gives every *executed* simulation run its own fresh
	// collector and puts it on the run's Outcome.Metrics (cache hits
	// carry none — their runs happened in an earlier sweep).  Each run's
	// conservation invariants are verified individually; callers that
	// want grid totals Merge the collectors.  Incompatible with
	// Replications >= 2 (replications cannot share a collector).
	Metrics bool
}

// Outcome pairs a point with its (computed or cached) result.
type Outcome struct {
	Point  Point
	Key    string
	Result Result
	// Cached reports whether the result came from the cache.
	Cached bool
	// Metrics holds the slot-level counters of the point's run when
	// Options.Metrics is set and the point was executed, not cached.
	Metrics *metrics.SlotMetrics
}

// Run enumerates the space and evaluates every point, answering what it
// can from the cache.  The misses are fed to the workers from one queue
// (an atomic index): first the analytic solve of every (τ, M, ρ′) group
// that holds a miss (see analyticGroup), then one task per missed point,
// which simulates the point and takes its analytic column from its
// group.  Results land in enumeration-order slots, and every value is a
// function of the point and the space's τ and K axis alone, so the
// returned slice — and anything emitted from it — is bit-identical at any
// worker count and whatever the cache holds from spaces with the same τ
// and K axis.  A result cached by a space with another K axis differs at
// most in its analytic column's rounding (within 1e-12).
func Run(space Space, opt Options) ([]Outcome, error) {
	norm, err := space.Normalize()
	if err != nil {
		return nil, err
	}
	if opt.Metrics && norm.Replications > 1 {
		return nil, fmt.Errorf("sweep: Metrics cannot instrument replicated runs (replications share no collector)")
	}
	pts, err := norm.Enumerate()
	if err != nil {
		return nil, err
	}
	if opt.MaxPoints > 0 && len(pts) > opt.MaxPoints {
		return nil, fmt.Errorf("sweep: grid has %d points, over the %d-point budget (raise -points or shrink an axis)",
			len(pts), opt.MaxPoints)
	}

	outs := make([]Outcome, len(pts))
	var misses []int
	for i, p := range pts {
		key := p.Key()
		outs[i] = Outcome{Point: p, Key: key}
		if r, ok := opt.Cache.Get(key); ok {
			outs[i].Result = r
			outs[i].Cached = true
			continue
		}
		misses = append(misses, i)
	}
	cols := newColumns(norm, misses)
	tasks := len(cols.solve) + len(misses)

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	flushEvery := opt.FlushEvery
	if flushEvery <= 0 {
		flushEvery = 4096
	}

	// commit folds one computed result into the cache, with a
	// bounded-staleness flush.
	var mu sync.Mutex
	var commitErr error
	commit := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if commitErr != nil {
			return
		}
		if err := opt.Cache.Put(outs[i].Key, outs[i].Point, outs[i].Result); err != nil {
			commitErr = err
			return
		}
		if opt.Cache.Dirty() >= flushEvery {
			commitErr = opt.Cache.Flush()
		}
	}
	// work drains the queue.  Every group task precedes every point
	// task, so a point waits only on a group that a running worker has
	// already taken.
	var next atomic.Int64
	work := func() {
		for {
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			if t < len(cols.solve) {
				cols.groups[cols.solve[t]].solve()
				continue
			}
			i := misses[t-len(cols.solve)]
			if opt.Metrics {
				outs[i].Metrics = &metrics.SlotMetrics{}
			}
			p := outs[i].Point
			res := simulate(p, outs[i].Metrics)
			cols.fill(i, p, &res)
			outs[i].Result = res
			commit(i)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	if commitErr != nil {
		return nil, commitErr
	}
	if err := opt.Cache.Flush(); err != nil {
		return nil, err
	}
	return outs, nil
}

// columns is the analytic side of one Run: the space's (ρ′, M) groups,
// indexed like the enumeration's outer two axes.
type columns struct {
	groups []*analyticGroup // nil for a group without a miss
	solve  []int            // the groups to solve, in enumeration order
	perK   int              // points per K-axis position: ε × disciplines
	nK     int              // K-axis length
}

// analyticGroup is one (ρ′, M) operating point at the space's τ.  One
// queueing.ProtocolModel.LossGrids call over the space's whole K axis
// serves its analytic column at every constraint, every error rate (the
// model is perfect-feedback) and every discipline with a model.  Its
// input is fixed by the space's τ and K axis, not by which of its points
// were cached, so a point's value is too.
type analyticGroup struct {
	model queueing.ProtocolModel
	ks    []float64
	want  queueing.Curves
	grids queueing.GridLosses
	err   error
	done  chan struct{} // closed once grids and err are set
}

func (g *analyticGroup) solve() {
	g.grids, g.err = g.model.LossGrids(g.ks, g.want)
	close(g.done)
}

// newColumns builds a group for every (ρ′, M) of the normalized space s
// that holds one of the missed enumeration positions, asking LossGrids
// for the curves of the space's disciplines.  Without such a discipline
// there is nothing to solve, and every point takes the per-point path.
func newColumns(s Space, misses []int) columns {
	c := columns{
		groups: make([]*analyticGroup, len(s.Loads)*len(s.Ms)),
		perK:   len(s.ErrorRates) * len(s.Disciplines),
		nK:     len(s.KOverM),
	}
	var want queueing.Curves
	for _, d := range s.Disciplines {
		switch d {
		case core.Controlled:
			want |= queueing.CurveControlled
		case core.FCFS:
			want |= queueing.CurveFCFS
		case core.LCFS:
			want |= queueing.CurveLCFS
		}
	}
	if want == 0 {
		return c
	}
	for _, i := range misses {
		gi := i / (c.perK * c.nK)
		if c.groups[gi] != nil {
			continue
		}
		m := s.Ms[gi%len(s.Ms)]
		g := &analyticGroup{
			model: queueing.ProtocolModel{Tau: s.Tau, M: m, RhoPrime: s.Loads[gi/len(s.Ms)]},
			ks:    make([]float64, c.nK),
			want:  want,
			done:  make(chan struct{}),
		}
		for j, km := range s.KOverM {
			g.ks[j] = Point{Tau: s.Tau, M: m, KOverM: km}.K()
		}
		c.groups[gi] = g
		c.solve = append(c.solve, gi)
	}
	return c
}

// fill sets the analytic column of p, the point at enumeration position
// i, from its group once the group is solved.  A failed group's error
// becomes the error of each of its controlled points, without a second
// solve.  A baseline whose curve came back NaN (unstable, or its own
// series failed), a baseline of a failed group and a discipline with no
// model take the per-point path, which gives their exact error.
func (c columns) fill(i int, p Point, res *Result) {
	loss := math.NaN()
	if g := c.groups[i/(c.perK*c.nK)]; g != nil {
		<-g.done
		ki := i / c.perK % c.nK
		switch {
		case g.err != nil && p.Discipline == core.Controlled.String():
			res.AnalyticErr = g.err.Error()
			return
		case g.err != nil:
		case p.Discipline == core.Controlled.String():
			loss = g.grids.Controlled[ki].Loss
		case p.Discipline == core.FCFS.String():
			loss = g.grids.FCFS[ki]
		case p.Discipline == core.LCFS.String():
			loss = g.grids.LCFS[ki]
		}
	}
	if math.IsNaN(loss) {
		pointAnalytic(p, res)
		return
	}
	res.AnalyticLoss = fin(loss)
	res.AnalyticOK = true
}

// pointAnalytic sets the analytic column of p from its own §4 model
// solve.
func pointAnalytic(p Point, res *Result) {
	disc, err := ParseDiscipline(p.Discipline)
	if err != nil {
		res.AnalyticErr = err.Error()
		return
	}
	sys := core.System{Tau: p.Tau, M: p.M, RhoPrime: p.RhoPrime, K: p.K(), Discipline: disc}
	a, err := sys.AnalyticLoss()
	if err != nil {
		res.AnalyticErr = err.Error()
		return
	}
	res.AnalyticLoss = fin(a.Loss)
	res.AnalyticOK = true
}

// simulate runs p's simulation when it carries a budget, replicated when
// Replications >= 2, and returns a Result with the simulation fields set.
// Failures (unstable baselines exceeding MaxBacklog) are recorded in the
// result, not returned — a hopeless cell is a legitimate, cacheable
// answer for a surface.
func simulate(p Point, sm *metrics.SlotMetrics) Result {
	var res Result
	disc, err := ParseDiscipline(p.Discipline)
	if err != nil {
		res.SimErr = err.Error()
		return res
	}
	if p.Messages <= 0 {
		return res
	}
	sys := core.System{
		Tau: p.Tau, M: p.M, RhoPrime: p.RhoPrime, K: p.K(),
		Discipline: disc, Seed: p.Seed,
	}
	opt := core.SimOptions{
		EndTime: p.Messages / sys.Lambda(),
		Faults:  fault.Config{Rates: p.Rates, Seed: p.FaultSeed},
	}
	if p.Replications >= 2 {
		rep, err := sys.SimulateReplicated(p.Replications, opt)
		if err != nil {
			res.SimErr = err.Error()
			return res
		}
		res.SimOK = true
		res.SimLoss = fin(rep.LossMean)
		res.SimLo = fin(rep.LossMean - rep.LossHalfWidth)
		res.SimHi = fin(rep.LossMean + rep.LossHalfWidth)
		res.MeanWait = fin(rep.WaitMean)
		var util float64
		for _, r := range rep.Runs {
			res.Offered += r.Offered
			res.Decided += r.Decided()
			util += r.Utilization
		}
		res.Utilization = fin(util / float64(len(rep.Runs)))
		return res
	}

	sopt := opt
	if sm != nil {
		sopt.Collector = sm
	}
	rep, err := sys.Simulate(sopt)
	if err != nil {
		res.SimErr = err.Error()
		return res
	}
	lo, hi := rep.LossCI(0.95)
	res.SimOK = true
	res.SimLoss = fin(rep.Loss())
	res.SimLo = fin(lo)
	res.SimHi = fin(hi)
	res.MeanWait = fin(rep.TrueWait.Mean())
	res.Utilization = fin(rep.Utilization)
	res.Offered = rep.Offered
	res.Decided = rep.Decided()
	return res
}
