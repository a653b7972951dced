package sim

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"windowctl/internal/metrics"
	"windowctl/internal/protocol"
	"windowctl/internal/queueing"
	"windowctl/internal/rngutil"
	"windowctl/internal/window"
)

// PanelSpec identifies one panel of the paper's figure 7: a (ρ′, M) pair
// and a grid of time constraints.
type PanelSpec struct {
	// RhoPrime is the normalized offered load λ′·M·τ.
	RhoPrime float64
	// M is the message length in slots.
	M float64
	// Tau is the slot time; 0 means 1 (the natural unit).
	Tau float64
	// KOverM lists the constraints in units of the message time M·τ;
	// empty means the standard grid {0.5, 1, 1.5, 2, 3, 4, 6, 8}.
	KOverM []float64
}

// DefaultKOverM is the standard constraint grid of the harness.
var DefaultKOverM = []float64{0.5, 1, 1.5, 2, 3, 4, 6, 8}

// AllPanels returns the six panels of figure 7:
// ρ′ ∈ {.25, .50, .75} × M ∈ {25, 100}.
func AllPanels() []PanelSpec {
	var out []PanelSpec
	for _, rp := range []float64{0.25, 0.50, 0.75} {
		for _, m := range []float64{25, 100} {
			out = append(out, PanelSpec{RhoPrime: rp, M: m})
		}
	}
	return out
}

func (p PanelSpec) withDefaults() PanelSpec {
	if p.Tau == 0 {
		p.Tau = 1
	}
	if len(p.KOverM) == 0 {
		p.KOverM = append([]float64(nil), DefaultKOverM...)
	}
	return p
}

// Point is one constraint value of a panel with every curve evaluated.
type Point struct {
	// KOverM and K give the constraint in message times and absolute time.
	KOverM, K float64
	// Controlled is the analytic loss of the controlled protocol (eq 4.7).
	Controlled float64
	// FCFS and LCFS are the analytic baseline losses; NaN if the baseline
	// queue is unstable at this load.
	FCFS, LCFS float64
	// SimControlled is the simulated loss of the controlled protocol
	// (NaN when simulation was disabled).
	SimControlled float64
	// SimLo and SimHi bound SimControlled at 95% confidence.
	SimLo, SimHi float64
	// SimFCFS and SimLCFS are simulated baseline losses (NaN when
	// disabled or failed).
	SimFCFS, SimLCFS float64
	// SimFCFSErr and SimLCFSErr record why a requested baseline
	// simulation produced no value (nil when it succeeded or was not
	// requested).  The corresponding Sim* field is NaN on failure.
	SimFCFSErr, SimLCFSErr error
	// ControlledMetrics, FCFSMetrics and LCFSMetrics hold the slot-level
	// counters of each simulated run when SimOptions.Metrics is set (nil
	// otherwise, or when the run was skipped or failed).  Their
	// conservation invariants were verified by the run that filled them.
	ControlledMetrics, FCFSMetrics, LCFSMetrics *metrics.SlotMetrics
}

// Panel is a fully evaluated figure-7 panel.
type Panel struct {
	Spec   PanelSpec
	Points []Point
	// Protocol names the protocol the Sim* main curve ran
	// (SimOptions.Protocol; "controlled" when it was left empty).
	Protocol string
}

// SimOptions controls the simulation side of the harness.
type SimOptions struct {
	// Disable skips all simulation (analytic curves only).
	Disable bool
	// Baselines additionally simulates the FCFS and LCFS protocols.
	Baselines bool
	// EndTime and Warmup configure each run; zero values choose horizons
	// long enough for ~Messages offered messages.
	EndTime, Warmup float64
	// Messages is the target number of offered messages per run used to
	// derive the horizon when EndTime is zero; 0 means 1e5.
	Messages float64
	// Seed drives the runs.
	Seed uint64
	// Metrics attaches a fresh metrics.SlotMetrics to every simulation
	// run and surfaces it on the resulting Point, so per-panel slot,
	// utilization and discard accounting (the §4.2 quantities) comes out
	// of the pipeline itself; every instrumented run's conservation
	// invariants are checked and a violation fails the evaluation.
	Metrics bool
	// Workers bounds the number of work items (one per constraint and
	// protocol, plus one analytic job per panel) evaluated concurrently;
	// 0 means GOMAXPROCS, 1 means sequential.  The output is
	// bit-identical at every worker count: each item's random stream is
	// derived from the item's identity, never from scheduling order.
	Workers int
	// Protocol selects which registered protocol (see internal/protocol)
	// the main simulated curve runs; empty means "controlled", keeping
	// the paper's pipeline bit-identical to before the plugin registry
	// existed.  The analytic curves and the FCFS/LCFS baselines are
	// unaffected — they are the fixed comparison yardstick.
	Protocol string
}

// Work-item protocol tags mixed into per-item seeds.  The values are part
// of the reproducibility contract: changing them changes every simulated
// curve.
const (
	protoControlled = iota
	protoFCFS
	protoLCFS
)

// itemSeed derives the random seed of one simulation work item from the
// base seed and the item's full identity.  Seeding by identity rather
// than by loop position keeps every run reproducible under any worker
// count and under re-slicing of the panel list, and the SplitMix64
// avalanche keeps neighbouring items (same panel, adjacent constraints)
// statistically independent — unlike the XOR of truncated parameters it
// replaces, which collided whenever K/M·1024 and M shared bits.
func itemSeed(seed uint64, spec PanelSpec, kIndex, proto int) uint64 {
	return rngutil.Mix64(seed,
		math.Float64bits(spec.RhoPrime),
		math.Float64bits(spec.M),
		math.Float64bits(spec.Tau),
		uint64(kIndex),
		uint64(proto),
	)
}

// simPolicy materializes one simulation work item's protocol through
// the plugin registry.  The builtin builders reproduce the pre-registry
// construction exactly (pinned by the engine goldens), so routing the
// controlled curve and the FCFS/LCFS baselines through here changes no
// bits; named zoo protocols slot into the same pipeline.
func simPolicy(name string, spec PanelSpec, lambda, k, gStar float64, seed uint64) (window.Policy, error) {
	return protocol.Build(name, protocol.Params{
		Tau: spec.Tau, M: spec.M, Lambda: lambda, K: k, G: gStar, Seed: seed,
	})
}

// runJobs executes the jobs over a bounded worker pool and returns the
// lowest-indexed error, independent of scheduling order.  Each job owns
// the memory it writes, so the only synchronization needed is the final
// barrier.
func runJobs(jobs []func() error, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	errs := make([]error, len(jobs))
	if workers <= 1 {
		for i, job := range jobs {
			errs[i] = job()
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = jobs[i]()
				}
			}()
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Figure7Panels evaluates a set of panels by fanning the work — one
// batched analytic solve per panel plus one simulation run per
// (constraint, protocol) — over a bounded worker pool.  Results are
// bit-identical to sequential evaluation (Workers: 1); see
// SimOptions.Workers.  This is the driver behind cmd/figures -parallel.
func Figure7Panels(specs []PanelSpec, opt SimOptions) ([]Panel, error) {
	simProto := opt.Protocol
	if simProto == "" {
		simProto = "controlled"
	}
	panels := make([]Panel, len(specs))
	var jobs []func() error

	for pi := range specs {
		spec := specs[pi].withDefaults()
		model := queueing.ProtocolModel{Tau: spec.Tau, M: spec.M, RhoPrime: spec.RhoPrime}
		lambda := model.Lambda()
		gStar := queueing.OptimalWindowContent()

		pts := make([]Point, len(spec.KOverM))
		ks := make([]float64, len(spec.KOverM))
		for i, km := range spec.KOverM {
			ks[i] = km * spec.M * spec.Tau
			pts[i] = Point{KOverM: km, K: ks[i],
				FCFS: math.NaN(), LCFS: math.NaN(),
				SimControlled: math.NaN(), SimLo: math.NaN(), SimHi: math.NaN(),
				SimFCFS: math.NaN(), SimLCFS: math.NaN()}
		}
		panels[pi] = Panel{Spec: spec, Points: pts, Protocol: simProto}

		// One analytic job per panel: all three curves ride the batched
		// multi-K solver, sharing convolution series across the grid.
		jobs = append(jobs, func() error {
			grids, err := model.LossGrids(ks, queueing.AllCurves)
			if err != nil {
				return fmt.Errorf("panel rho'=%v M=%v: controlled loss: %w",
					spec.RhoPrime, spec.M, err)
			}
			for i := range pts {
				pts[i].Controlled = grids.Controlled[i].Loss
				pts[i].FCFS = grids.FCFS[i]
				pts[i].LCFS = grids.LCFS[i]
			}
			return nil
		})

		if opt.Disable {
			continue
		}
		endTime := opt.EndTime
		if endTime == 0 {
			messages := opt.Messages
			if messages == 0 {
				messages = 1e5
			}
			endTime = messages / lambda
		}
		warmup := opt.Warmup
		if warmup == 0 {
			warmup = endTime / 20
		}
		// newCollector gives each instrumented run its own fresh
		// SlotMetrics (they are not safe for sharing across the worker
		// pool), shaped like the run's own Report histogram.
		newCollector := func(k float64) *metrics.SlotMetrics {
			if !opt.Metrics {
				return nil
			}
			return metrics.NewSlotMetrics(spec.Tau, int(k/spec.Tau)+64)
		}
		for i := range pts {
			i := i
			base := Config{
				Tau: spec.Tau, M: spec.M, Lambda: lambda, K: ks[i],
				EndTime: endTime, Warmup: warmup,
			}
			jobs = append(jobs, func() error {
				cfg := base
				cfg.Seed = itemSeed(opt.Seed, spec, i, protoControlled)
				pol, err := simPolicy(simProto, spec, lambda, ks[i], gStar, cfg.Seed)
				if err != nil {
					return fmt.Errorf("panel rho'=%v M=%v: %w", spec.RhoPrime, spec.M, err)
				}
				cfg.Policy = pol
				sm := newCollector(cfg.K)
				if sm != nil {
					cfg.Collector = sm
				}
				rep, err := RunGlobal(cfg)
				if err != nil {
					return fmt.Errorf("panel rho'=%v M=%v: %s simulation at K=%v: %w",
						spec.RhoPrime, spec.M, simProto, ks[i], err)
				}
				pts[i].SimControlled = rep.Loss()
				pts[i].SimLo, pts[i].SimHi = rep.LossCI(0.95)
				pts[i].ControlledMetrics = sm
				return nil
			})
			if !opt.Baselines {
				continue
			}
			jobs = append(jobs, func() error {
				cfg := base
				cfg.Seed = itemSeed(opt.Seed, spec, i, protoFCFS)
				pol, err := simPolicy("fcfs", spec, lambda, ks[i], gStar, cfg.Seed)
				if err != nil {
					return err
				}
				cfg.Policy = pol
				sm := newCollector(cfg.K)
				if sm != nil {
					cfg.Collector = sm
				}
				if rep, err := RunGlobal(cfg); err == nil {
					pts[i].SimFCFS = rep.Loss()
					pts[i].FCFSMetrics = sm
				} else {
					pts[i].SimFCFSErr = err
				}
				return nil
			})
			jobs = append(jobs, func() error {
				cfg := base
				cfg.Seed = itemSeed(opt.Seed, spec, i, protoLCFS)
				pol, err := simPolicy("lcfs", spec, lambda, ks[i], gStar, cfg.Seed)
				if err != nil {
					return err
				}
				cfg.Policy = pol
				sm := newCollector(cfg.K)
				if sm != nil {
					cfg.Collector = sm
				}
				if rep, err := RunGlobal(cfg); err == nil {
					pts[i].SimLCFS = rep.Loss()
					pts[i].LCFSMetrics = sm
				} else {
					pts[i].SimLCFSErr = err
				}
				return nil
			})
		}
	}

	if err := runJobs(jobs, opt.Workers); err != nil {
		return nil, err
	}
	return panels, nil
}

// Figure7Panel evaluates one panel: analytic curves from the batched
// queueing solvers, simulation points from the global-view simulator,
// with the per-(constraint, protocol) work spread over SimOptions.Workers.
func Figure7Panel(spec PanelSpec, opt SimOptions) (Panel, error) {
	panels, err := Figure7Panels([]PanelSpec{spec}, opt)
	if err != nil {
		return Panel{}, err
	}
	return panels[0], nil
}

// Format renders the panel as an aligned text table, the library's
// counterpart of one figure-7 plot.  Baseline simulation failures are
// listed below the table.
func (p Panel) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 panel: rho'=%.2f  M=%g  (loss fraction vs. constraint K)%s\n",
		p.Spec.RhoPrime, p.Spec.M, p.protocolNote())
	fmt.Fprintf(&b, "%8s %10s %12s %12s %12s %14s %12s %12s\n",
		"K/M", "K", "controlled", "fcfs", "lcfs", p.simLabel(), "sim(fcfs)", "sim(lcfs)")
	for _, pt := range p.Points {
		fmt.Fprintf(&b, "%8.2f %10.1f %12.5f %12s %12s %14s %12s %12s\n",
			pt.KOverM, pt.K, pt.Controlled,
			fmtLoss(pt.FCFS), fmtLoss(pt.LCFS),
			fmtSim(pt.SimControlled, pt.SimLo, pt.SimHi),
			fmtLoss(pt.SimFCFS), fmtLoss(pt.SimLCFS))
	}
	for _, pt := range p.Points {
		if pt.SimFCFSErr != nil {
			fmt.Fprintf(&b, "note: sim(fcfs) failed at K/M=%.2f: %v\n", pt.KOverM, pt.SimFCFSErr)
		}
		if pt.SimLCFSErr != nil {
			fmt.Fprintf(&b, "note: sim(lcfs) failed at K/M=%.2f: %v\n", pt.KOverM, pt.SimLCFSErr)
		}
	}
	return b.String()
}

// MetricsTable renders the slot-level counters collected for the panel's
// simulation runs (SimOptions.Metrics) as an aligned text table: one row
// per (constraint, protocol) with slot counts, window splits, channel
// utilization and the sender-discard accounting behind the §4.2 ablation.
// Runs without metrics (disabled, skipped or failed) are omitted; the
// table says so when nothing was collected.
func (p Panel) MetricsTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Slot metrics: rho'=%.2f  M=%g  (per simulated run; invariants verified)%s\n",
		p.Spec.RhoPrime, p.Spec.M, p.protocolNote())
	mainLabel := p.Protocol
	if mainLabel == "" {
		mainLabel = "controlled"
	}
	fmt.Fprintf(&b, "%8s %-10s %10s %10s %10s %8s %8s %10s %10s %10s\n",
		"K/M", "protocol", "idle", "success", "collision", "splits", "util",
		"discards", "disc.frac", "loss")
	rows := 0
	for _, pt := range p.Points {
		for _, row := range []struct {
			name string
			sm   *metrics.SlotMetrics
		}{
			{mainLabel, pt.ControlledMetrics},
			{"fcfs", pt.FCFSMetrics},
			{"lcfs", pt.LCFSMetrics},
		} {
			if row.sm == nil {
				continue
			}
			rows++
			fmt.Fprintf(&b, "%8.2f %-10s %10d %10d %10d %8d %8.4f %10d %10.4f %10.4f\n",
				pt.KOverM, row.name,
				row.sm.IdleSlots, row.sm.SuccessSlots, row.sm.CollisionSlots,
				row.sm.Splits, row.sm.Utilization(),
				row.sm.Discards, row.sm.DiscardFraction(), row.sm.Loss())
		}
	}
	if rows == 0 {
		b.WriteString("(no metrics collected — run with SimOptions.Metrics / -metrics)\n")
	}
	return b.String()
}

// protocolNote annotates table titles when the simulated curve ran a
// zoo protocol instead of the paper's controlled protocol.
func (p Panel) protocolNote() string {
	if p.Protocol == "" || p.Protocol == "controlled" {
		return ""
	}
	return fmt.Sprintf("  [sim protocol: %s]", p.Protocol)
}

// simLabel is the column header of the main simulated curve.
func (p Panel) simLabel() string {
	if p.Protocol == "" || p.Protocol == "controlled" {
		return "sim(ctrl)"
	}
	return "sim(" + p.Protocol + ")"
}

func fmtLoss(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.5f", v)
}

func fmtSim(v, lo, hi float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.4f±%.4f", v, (hi-lo)/2)
}
