package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"windowctl/internal/core"
	"windowctl/internal/metrics"
	"windowctl/internal/rngutil"
	"windowctl/internal/sim"
	"windowctl/internal/station"
	"windowctl/internal/sweep"
)

// collectGarbage runs the collector before a timed call, so that the
// garbage of one call (a million-station bank is 60 MB) is neither
// collected inside the next nor alive beside it at the peak.
func collectGarbage() { runtime.GC() }

// peakRSSMB is this process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// zeroLayers books 0 for the per-layer metrics of windowd's layers,
// which the batch workloads do not run.
func zeroLayers(r *report, names ...string) {
	for _, n := range names {
		r.values[n] = 0
	}
}

var svcOnlyLayers = []string{
	"pump.steps_per_decision", "pump.share", "pump.engine_wait_frac",
	"ingest.share", "ingest.ledger_wait_frac", "ingest.owed_mean",
	"wire.share", "wire.frames_per_s", "wire.msgs_per_frame",
	"stepper.share", "metrics.share", "metrics.record_calls_per_decision",
}

// gridOutcome totals one grid evaluation.
type gridOutcome struct {
	points, decided, lost int64
	virtual               float64 // simulated channel time
	controlledBad         int     // controlled points without a simulated result
}

func (g *gridOutcome) add(p sweep.Point, r sweep.Result) {
	g.points++
	if r.SimOK {
		g.decided += r.Decided
		g.lost += int64(math.Round(r.SimLoss * float64(r.Decided)))
		g.virtual += p.Messages * p.M * p.Tau / p.RhoPrime
	}
}

func runGrid(o options, p plan) (*report, error) {
	r := newReport()
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	setups, err := gridSetups(o, p)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return gridLayers(o, p, r, median(setups))
	}

	var calls, rates []float64
	var tot gridOutcome
	start := time.Now()
	for time.Since(start) < p.window || len(calls) == 0 {
		dir, err := os.MkdirTemp(o.workdir, "grid-")
		if err != nil {
			return nil, err
		}
		c, err := sweep.Open(dir)
		if err != nil {
			return nil, err
		}
		collectGarbage()
		t0 := time.Now()
		outs, err := sweep.Run(p.grid, sweep.Options{Workers: p.workers, Cache: c})
		call := time.Since(t0).Seconds()
		os.RemoveAll(dir)
		r.attempted += int64(p.grid.Size())
		if err != nil {
			r.failed += int64(p.grid.Size())
			r.check("sweep.Run", false, "%v", err)
			continue
		}
		before := tot.decided
		for _, out := range outs {
			tot.add(out.Point, out.Result)
			if out.Cached {
				r.check("cold-cache", false, "point %s answered from a fresh cache", out.Key)
			}
		}
		tot.controlledBad += controlledBad(outs)
		calls = append(calls, call)
		rates = append(rates, float64(tot.decided-before)/call)
	}
	r.failed += int64(tot.controlledBad)
	r.check("controlled-SimOK", tot.controlledBad == 0, "%d controlled points without a simulated loss", tot.controlledBad)
	r.values["decided_per_s"] = quantile(rates, 0.9)
	r.values["latency_ms"] = 1e3 * quantile(calls, 0.1)
	r.values["loss"] = float64(tot.lost) / float64(tot.decided)
	r.values["setup_s"] = median(setups)
	r.values["peak_rss_mb"] = peakRSSMB()
	r.note("%d grids of %d points, %d decisions in %.2f s; per grid %.3f to %.3f s, median %.3f s; setup median %.6f s of %d",
		len(calls), p.grid.Size(), tot.decided, sum(calls), quantile(calls, 0), quantile(calls, 1), median(calls),
		median(setups), len(setups))
	return r, nil
}

// gridSetups times what a cold sweep pays before its first simulation:
// opening the cache, normalising and enumerating the space, and keying
// and looking up every point.  It takes about a millisecond, so it is
// repeated often enough for its median to settle.
func gridSetups(o options, p plan) ([]float64, error) {
	var setups []float64
	for i := 0; i < 5*p.setupN; i++ {
		dir, err := os.MkdirTemp(o.workdir, "grid-setup-")
		if err != nil {
			return nil, err
		}
		collectGarbage()
		t0 := time.Now()
		c, err := sweep.Open(dir)
		var pts []sweep.Point
		if err == nil {
			pts, err = p.grid.Enumerate()
		}
		for _, pt := range pts {
			c.Get(pt.Key())
		}
		setups = append(setups, time.Since(t0).Seconds())
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}
	return setups, nil
}

func controlledBad(outs []sweep.Outcome) int {
	n := 0
	for _, out := range outs {
		if out.Point.Discipline == core.Controlled.String() && !out.Result.SimOK {
			n++
		}
	}
	return n
}

// gridRun is one evaluation of the grid by the benchmark's own driver.
type gridRun struct {
	gridOutcome
	wall, cpu float64
	pointDur  []float64 // seconds per point, in enumeration order
	slots     metrics.SlotMetrics
}

// evalGrid evaluates the grid the way sweep.Run does — every point a
// cache miss, contiguous shards over the workers, results Put into a
// fresh cache and flushed at the end — from public calls, so that each
// call can be booked to its layer: Key/Get/Put/Flush to sweep,
// AnalyticLoss to queueing, Simulate to engine.
func evalGrid(o options, p plan, tr *tracer) (*gridRun, error) {
	pts, err := p.grid.Enumerate()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "grid-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := sweep.Open(dir)
	if err != nil {
		return nil, err
	}
	g := &gridRun{pointDur: make([]float64, len(pts))}
	results := make([]sweep.Result, len(pts))
	slots := make([]metrics.SlotMetrics, p.workers)
	errs := make([]error, p.workers)
	chunk := (len(pts) + p.workers - 1) / p.workers
	cpu0 := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(pts))
		if lo >= hi {
			break
		}
		ln := tr.lane("worker")
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ln.start = time.Now()
			defer func() { ln.end = time.Now() }()
			for i := lo; i < hi && errs[w] == nil; i++ {
				t0 := time.Now()
				results[i], errs[w] = evalPoint(pts[i], c, ln, &slots[w], uint64(i+1))
				g.pointDur[i] = time.Since(t0).Seconds()
			}
		}(w, lo, hi)
	}
	wg.Wait()
	t0 := time.Now()
	ferr := c.Flush()
	tr.lane("driver").add(lSweep, time.Since(t0))
	g.wall = time.Since(start).Seconds()
	g.cpu = cpuSeconds() - cpu0
	for _, e := range append(errs, ferr) {
		if e != nil {
			return nil, e
		}
	}
	for i, pt := range pts {
		g.add(pt, results[i])
		if pt.Discipline == core.Controlled.String() && !results[i].SimOK {
			g.controlledBad++
		}
	}
	for i := range slots {
		g.slots.Merge(&slots[i])
	}
	return g, nil
}

// evalPoint is sweep's per-point evaluation for a single replication
// without faults: the analytic prediction, then the simulation.
func evalPoint(pt sweep.Point, c *sweep.Cache, ln *lane, sm *metrics.SlotMetrics, trace uint64) (sweep.Result, error) {
	var res sweep.Result
	t0 := time.Now()
	key := pt.Key()
	if _, hit := c.Get(key); hit {
		return res, fmt.Errorf("point %s answered from a fresh cache", key)
	}
	disc, err := sweep.ParseDiscipline(pt.Discipline)
	if err != nil {
		return res, err
	}
	sys := core.System{Tau: pt.Tau, M: pt.M, RhoPrime: pt.RhoPrime, K: pt.K(), Discipline: disc, Seed: pt.Seed}
	t1 := lap(ln, lSweep, t0)
	if a, err := sys.AnalyticLoss(); err == nil {
		res.AnalyticLoss, res.AnalyticOK = a.Loss, true
	}
	t2 := lap(ln, lQueueing, t1)
	point := &metrics.SlotMetrics{}
	rep, err := sys.Simulate(core.SimOptions{EndTime: pt.Messages / sys.Lambda(), Collector: point})
	if err == nil {
		res.SimOK, res.SimLoss = true, rep.Loss()
		res.Offered, res.Decided = rep.Offered, rep.Decided()
		sm.Merge(point)
	}
	t3 := lap(ln, lEngine, t2)
	err = c.Put(key, pt, res)
	t4 := lap(ln, lSweep, t3)
	root := ln.span("sweep.point", t0, t4, 0, trace)
	ln.span("queueing.AnalyticLoss", t1, t2, root, trace)
	ln.span("engine.Simulate", t2, t3, root, trace)
	ln.span("sweep.Put", t3, t4, root, trace)
	return res, err
}

// shardImbalance is the max/mean shard time the driver's contiguous
// split would give these per-point times over the workers.
func shardImbalance(durs []float64, workers int) float64 {
	chunk := (len(durs) + workers - 1) / workers
	var shards []float64
	for lo := 0; lo < len(durs); lo += chunk {
		shards = append(shards, sum(durs[lo:min(lo+chunk, len(durs))]))
	}
	return quantile(shards, 1) / (sum(shards) / float64(len(shards)))
}

func gridLayers(o options, p plan, r *report, setup float64) (*report, error) {
	plain, err := evalGrid(o, p, newTracer(false))
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	traced, err := evalGrid(o, p, tr)
	if err != nil {
		return nil, err
	}
	r.attempted = plain.points + traced.points
	r.failed = int64(plain.controlledBad + traced.controlledBad)
	r.check("controlled-SimOK", r.failed == 0, "%d controlled points without a simulated loss", r.failed)
	r.check("traced==untraced", plain.decided == traced.decided && plain.lost == traced.lost,
		"decided %d vs %d, lost %d vs %d", traced.decided, plain.decided, traced.lost, plain.lost)

	self, _ := tr.totals()
	sh := tr.shares()
	dec := float64(traced.decided)
	slots := float64(traced.slots.IdleSlots + traced.slots.SuccessSlots + traced.slots.CollisionSlots)
	zeroLayers(r, svcOnlyLayers...)
	zeroLayers(r, "multi.bank_setup_frac")
	r.values["engine.ns_per_msg"] = float64(self[lEngine].Nanoseconds()) / dec
	r.values["engine.share"] = sh[lEngine]
	r.values["engine.idle_slot_frac"] = float64(traced.slots.IdleSlots) / slots
	r.values["engine.collision_slot_frac"] = float64(traced.slots.CollisionSlots) / slots
	r.values["engine.splits_per_decision"] = float64(traced.slots.Splits) / float64(traced.slots.Decided())
	r.values["engine.virtual_per_wall"] = plain.virtual / plain.wall
	r.values["queueing.share"] = sh[lQueueing]
	r.values["sweep.share"] = sh[lSweep]
	r.values["sweep.points_per_s"] = float64(plain.points) / plain.wall
	r.values["sweep.shard_imbalance"] = shardImbalance(traced.pointDur, p.workers)
	r.values["process.cpu_cores"] = plain.cpu / plain.wall
	r.values["process.cpu_us_per_decision"] = 1e6 * plain.cpu / float64(plain.decided)
	r.values["trace.ns_per_decision"] = 1e9 * traced.wall / dec
	r.values["trace.overhead_frac"] = traced.cpu/plain.cpu - 1
	cov := tr.coverage("worker")
	r.values["trace.layer_sum_frac"] = cov
	r.check("layer-sum", cov >= 0.9 && cov <= 1.1, "worker layers cover %.3f of their wall time", cov)
	r.note("queueing %.3f ms/point; sweep cache %.1f ms total; untraced %.2f s, traced %.2f s; setup %.6f s",
		1e3*self[lQueueing].Seconds()/float64(traced.points), 1e3*self[lSweep].Seconds(), plain.wall, traced.wall, setup)
	if o.spans != "" {
		if err := tr.write(spansPath(o)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// multiConfig is the million-station run at ρ′ = 0.5, K/M = 2, M = 25.
func multiConfig(seed uint64, shape multiShape, end float64) (sim.MultiConfig, error) {
	sys := core.System{Tau: 1, M: 25, RhoPrime: 0.5, K: 50, Seed: seed}
	pol, err := sys.Policy()
	if err != nil {
		return sim.MultiConfig{}, err
	}
	return sim.MultiConfig{
		Config: sim.Config{
			Policy: pol, Tau: sys.Tau, M: sys.M, Lambda: sys.Lambda(), K: sys.K,
			EndTime: end, Seed: seed,
		},
		Stations: shape.stations,
	}, nil
}

// multiSetups times RunMultiStation over one message time (M·τ): the
// cost of building the station bank and the engine, before any steady
// state.
func multiSetups(seed uint64, shape multiShape, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		cfg, err := multiConfig(seed, shape, 25)
		if err != nil {
			return nil, err
		}
		collectGarbage()
		t0 := time.Now()
		if _, err := sim.RunMultiStation(cfg); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func runMulti(o options, p plan) (*report, error) {
	r := newReport()
	base := rngutil.Mix64(o.seed, seedTagMulti)
	setups, err := multiSetups(base, p.multi, p.setupN)
	if err != nil {
		return nil, err
	}
	setup := median(setups)
	a, err := core.System{Tau: 1, M: 25, RhoPrime: 0.5, K: 50}.AnalyticLoss()
	if err != nil {
		return nil, err
	}
	if o.trace {
		return multiLayers(o, p, r, base, setup)
	}
	var calls, rates []float64
	var decided, lost int64
	start := time.Now()
	for i := uint64(0); time.Since(start) < p.window || len(calls) == 0; i++ {
		cfg, err := multiConfig(rngutil.Mix64(base, i), p.multi, p.multi.end)
		if err != nil {
			return nil, err
		}
		collectGarbage()
		t0 := time.Now()
		rep, err := sim.RunMultiStation(cfg)
		call := time.Since(t0).Seconds()
		r.attempted++
		if err != nil {
			r.failed++
			r.check("RunMultiStation", false, "%v", err)
			continue
		}
		decided += rep.Decided()
		lost += rep.Lost()
		calls = append(calls, call)
		rates = append(rates, float64(rep.Decided())/(call-setup))
	}
	loss := float64(lost) / float64(decided)
	r.check("loss-vs-eq4.7", math.Abs(loss-a.Loss) <= 0.02, "measured %.4f, analytic %.4f (tolerance 0.02)", loss, a.Loss)
	r.values["decided_per_s"] = quantile(rates, 0.9)
	r.values["latency_ms"] = 1e3 * quantile(calls, 0.1)
	r.values["loss"] = loss
	r.values["setup_s"] = setup
	r.values["peak_rss_mb"] = peakRSSMB()
	r.note("%d runs of %d stations, %d decisions in %.2f s; per run %.3f to %.3f s, median %.3f s; setup median %.4f s of %d",
		len(calls), p.multi.stations, decided, sum(calls), quantile(calls, 0), quantile(calls, 1), median(calls),
		setup, len(setups))
	return r, nil
}

func multiLayers(o options, p plan, r *report, seed uint64, setup float64) (*report, error) {
	cfg, err := multiConfig(seed, p.multi, p.multi.end)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	ln := tr.lane("run")
	collectGarbage()
	t0 := time.Now()
	if _, err := station.NewBank(cfg.Stations, cfg.Seed, cfg.Lambda/float64(cfg.Stations), nil, p.workers); err != nil {
		return nil, err
	}
	t1 := lap(ln, lMulti, t0)
	ln.span("station.NewBank", t0, t1, 0, 1)
	bank := t1.Sub(t0)

	collectGarbage()
	cpu0 := cpuSeconds()
	t2 := time.Now()
	plain, err := sim.RunMultiStation(cfg)
	if err != nil {
		return nil, err
	}
	plainWall := time.Since(t2).Seconds()
	plainCPU := cpuSeconds() - cpu0

	var sm metrics.SlotMetrics
	cfg.Collector = &sm
	collectGarbage()
	cpu1 := cpuSeconds()
	t3 := time.Now()
	traced, err := sim.RunMultiStation(cfg)
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	tracedCPU := cpuSeconds() - cpu1
	// The bank is built inside the call; its separately timed build
	// stands in for that part, and the rest is the engine.
	ln.add(lEngine, t4.Sub(t3)-bank)
	ln.span("engine.RunMultiStation", t3, t4, 0, 2)
	ln.start, ln.end = t3, t4

	r.attempted, r.failed = 3, 0
	r.check("traced==untraced", plain.Decided() == traced.Decided() && plain.Lost() == traced.Lost(),
		"decided %d vs %d", traced.Decided(), plain.Decided())
	dec := float64(traced.Decided())
	sh := tr.shares()
	slots := float64(sm.IdleSlots + sm.SuccessSlots + sm.CollisionSlots)
	zeroLayers(r, svcOnlyLayers...)
	zeroLayers(r, "queueing.share", "sweep.share", "sweep.points_per_s", "sweep.shard_imbalance")
	r.values["engine.ns_per_msg"] = float64((t4.Sub(t3) - bank).Nanoseconds()) / dec
	r.values["engine.share"] = sh[lEngine]
	r.values["engine.idle_slot_frac"] = float64(sm.IdleSlots) / slots
	r.values["engine.collision_slot_frac"] = float64(sm.CollisionSlots) / slots
	r.values["engine.splits_per_decision"] = float64(sm.Splits) / float64(sm.Decided())
	r.values["engine.virtual_per_wall"] = cfg.EndTime / plainWall
	r.values["multi.bank_setup_frac"] = bank.Seconds() / setup
	r.values["process.cpu_cores"] = plainCPU / plainWall
	r.values["process.cpu_us_per_decision"] = 1e6 * plainCPU / float64(plain.Decided())
	r.values["trace.ns_per_decision"] = float64(t4.Sub(t3).Nanoseconds()) / dec
	r.values["trace.overhead_frac"] = tracedCPU/plainCPU - 1
	r.values["trace.layer_sum_frac"] = tr.coverage("run")
	r.note("bank build %.3f s for %d stations; setup %.3f s; untraced run %.2f s, traced %.2f s",
		bank.Seconds(), cfg.Stations, setup, plainWall, t4.Sub(t3).Seconds())
	if o.spans != "" {
		if err := tr.write(spansPath(o)); err != nil {
			return nil, err
		}
	}
	return r, nil
}
