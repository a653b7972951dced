// Benchmarks regenerating the paper's evaluation.  Each table/figure of
// the paper maps onto one benchmark here (see DESIGN.md §5):
//
//   - BenchmarkFigure7/* — the six panels of figure 7 (the paper's whole
//     evaluation): analytic curves plus simulation points; each run logs
//     the panel table and reports the loss values at K = 2·M·τ as custom
//     metrics.
//   - BenchmarkEq47Limits — the paper's analytic sanity checks of
//     equation 4.7 (K→0 and K→∞).
//   - BenchmarkSMDPPolicyIteration — the appendix-A machinery: Howard
//     policy iteration on the §3 decision model.
//   - Benchmark*Ablation — the design-choice ablations called out in
//     DESIGN.md §6 (window size, split rule, sender discard, split
//     fraction) plus the global-vs-multistation fidelity check.
//
// Run with: go test -bench=. -benchmem
package windowctl_test

import (
	"fmt"
	"testing"
	"time"

	"windowctl"
	"windowctl/internal/benchcase"
	"windowctl/internal/numerics"
	"windowctl/internal/queueing"
	"windowctl/internal/sim"
	"windowctl/internal/smdp"
	"windowctl/internal/sweep"
	"windowctl/internal/window"
)

// benchSimEnd keeps per-iteration simulation time moderate; cmd/figures
// runs the long-horizon version.
const benchSimEnd = 2e5

// BenchmarkRunGlobal times the global-view engine on the pinned harness
// workloads (see internal/benchcase): a small-backlog operating point and
// an overloaded large-backlog one.  ns/msg and msgs/sec are derived from
// the offered-message count; run with -benchmem to see the allocation
// profile (steady-state steps are allocation-free — the sim package's
// TestGlobalStepZeroAlloc asserts it).  cmd/simbench runs the same
// workloads for the CI regression gate.
func BenchmarkRunGlobal(b *testing.B) {
	for _, c := range benchcase.Global() {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				rep, err := sim.RunGlobal(c.Cfg)
				if err != nil {
					b.Fatal(err)
				}
				msgs = rep.Offered
			}
			perIter := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(perIter*1e9/float64(msgs), "ns/msg")
			b.ReportMetric(float64(msgs)/perIter, "msgs/sec")
		})
	}
}

// BenchmarkRunMultiStation is the multi-station-engine counterpart of
// BenchmarkRunGlobal.
func BenchmarkRunMultiStation(b *testing.B) {
	for _, c := range benchcase.Multi() {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				rep, err := sim.RunMultiStation(c.Cfg)
				if err != nil {
					b.Fatal(err)
				}
				msgs = rep.Offered
			}
			perIter := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(perIter*1e9/float64(msgs), "ns/msg")
			b.ReportMetric(float64(msgs)/perIter, "msgs/sec")
		})
	}
}

// BenchmarkIngest times the binary ingest path on the pinned wire
// workloads (see internal/benchcase): the codec alone, and the full
// loopback TCP protocol at shallow and deep frame batching.  Each
// iteration moves a fixed frame batch end to end, so ns/msg prices the
// whole decode + credit + ack machinery per absorbed message.
// cmd/simbench runs the same workloads for the CI regression gate.
func BenchmarkIngest(b *testing.B) {
	for _, c := range benchcase.Ingest() {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			var msgs int64
			var total time.Duration
			for i := 0; i < b.N; i++ {
				d, m, err := benchcase.RunIngest(c)
				if err != nil {
					b.Fatal(err)
				}
				total += d
				msgs = m
			}
			perIter := total.Seconds() / float64(b.N)
			b.ReportMetric(perIter*1e9/float64(msgs), "ns/msg")
			b.ReportMetric(float64(msgs)/perIter, "msgs/sec")
		})
	}
}

// BenchmarkSweepGrid times the phase-diagram grid driver on the pinned
// sweep workload (see internal/benchcase), cache-cold (every point
// simulated, results persisted) and cache-warm (every point answered
// from the content-addressed store; cmd/simbench asserts the warm run
// is 100% hits).  ns/point and points/sec are the sweep-engine
// counterparts of the per-message metrics above; cmd/simbench records
// the same pair in BENCH_*.json for the CI regression gate.
func BenchmarkSweepGrid(b *testing.B) {
	for _, c := range benchcase.Sweep() {
		c := c
		b.Run(c.Name+"-cold", func(b *testing.B) {
			var points int
			for i := 0; i < b.N; i++ {
				cache, err := sweep.Open(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				outs, err := sweep.Run(c.Space, sweep.Options{Cache: cache})
				if err != nil {
					b.Fatal(err)
				}
				points = len(outs)
			}
			perIter := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(perIter*1e9/float64(points), "ns/point")
			b.ReportMetric(float64(points)/perIter, "points/sec")
		})
		b.Run(c.Name+"-warm", func(b *testing.B) {
			dir := b.TempDir()
			cache, err := sweep.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sweep.Run(c.Space, sweep.Options{Cache: cache}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var points int
			for i := 0; i < b.N; i++ {
				warm, err := sweep.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				outs, err := sweep.Run(c.Space, sweep.Options{Cache: warm})
				if err != nil {
					b.Fatal(err)
				}
				points = len(outs)
			}
			perIter := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(perIter*1e9/float64(points), "ns/point")
			b.ReportMetric(float64(points)/perIter, "points/sec")
		})
	}
}

// BenchmarkFigure7 regenerates each panel of figure 7.
func BenchmarkFigure7(b *testing.B) {
	for _, spec := range windowctl.AllFigure7Panels() {
		spec := spec
		name := fmt.Sprintf("rho=%.2f,M=%g", spec.RhoPrime, spec.M)
		b.Run(name, func(b *testing.B) {
			var panel windowctl.Panel
			for i := 0; i < b.N; i++ {
				var err error
				panel, err = windowctl.Figure7Panel(spec, windowctl.Figure7Options{
					Seed:      7,
					Baselines: true,
					EndTime:   benchSimEnd * spec.M / 25,
					Warmup:    benchSimEnd / 10 * spec.M / 25,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.Log("\n" + panel.Format())
			for _, pt := range panel.Points {
				if pt.KOverM == 2 {
					b.ReportMetric(pt.Controlled, "loss-ctrl@K2M")
					b.ReportMetric(pt.FCFS, "loss-fcfs@K2M")
					b.ReportMetric(pt.LCFS, "loss-lcfs@K2M")
					b.ReportMetric(pt.SimControlled, "loss-sim@K2M")
				}
			}
		})
	}
}

// BenchmarkFigure7AllPanels regenerates the whole figure — all six panels
// with baselines — through the multi-panel driver, sequentially and over
// the default worker pool.  The two variants produce bit-identical panels
// (asserted by the sim package's determinism test); compare their ns/op
// for the parallel speedup.
func BenchmarkFigure7AllPanels(b *testing.B) {
	specs := windowctl.AllFigure7Panels()
	opt := windowctl.Figure7Options{
		Seed:      7,
		Baselines: true,
		EndTime:   benchSimEnd,
		Warmup:    benchSimEnd / 10,
	}
	for _, c := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			o := opt
			o.Workers = c.workers
			for i := 0; i < b.N; i++ {
				if _, err := windowctl.Figure7Panels(specs, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7Analytic times the batched analytic evaluation of one
// panel's three curves (the shared-convolution multi-K path behind
// Figure7Panel) and reports the FFT convolutions per panel; compare with
// BenchmarkFigure7AnalyticPerK, the one-series-per-point evaluation it
// replaces.
func BenchmarkFigure7Analytic(b *testing.B) {
	model := queueing.ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.75}
	var ks []float64
	for _, km := range sim.DefaultKOverM {
		ks = append(ks, km*25)
	}
	before := numerics.ConvolveFFTCount()
	for i := 0; i < b.N; i++ {
		if _, err := model.LossGrids(ks, queueing.AllCurves); err != nil {
			b.Fatal(err)
		}
	}
	convs := numerics.ConvolveFFTCount() - before
	b.ReportMetric(float64(convs)/float64(b.N), "convs/op")
}

// BenchmarkFigure7AnalyticPerK evaluates the same panel point by point,
// paying one convolution series per (constraint, curve).
func BenchmarkFigure7AnalyticPerK(b *testing.B) {
	model := queueing.ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.75}
	before := numerics.ConvolveFFTCount()
	for i := 0; i < b.N; i++ {
		for _, km := range sim.DefaultKOverM {
			k := km * 25
			if _, err := model.ControlledLoss(k); err != nil {
				b.Fatal(err)
			}
			if _, err := model.FCFSLoss(k); err != nil {
				b.Fatal(err)
			}
			if _, err := model.LCFSLoss(k); err != nil {
				b.Fatal(err)
			}
		}
	}
	convs := numerics.ConvolveFFTCount() - before
	b.ReportMetric(float64(convs)/float64(b.N), "convs/op")
}

// BenchmarkEq47Limits exercises the analytic limit checks the paper uses
// to validate equation 4.7: p(loss) → ρ/(1+ρ) as K → 0 and p(loss) → 0 as
// K → ∞.
func BenchmarkEq47Limits(b *testing.B) {
	sysSmall := windowctl.System{M: 25, RhoPrime: 0.5, K: 1e-3}
	sysLarge := windowctl.System{M: 25, RhoPrime: 0.5, K: 25 * 40}
	var small, large windowctl.AnalyticResult
	for i := 0; i < b.N; i++ {
		var err error
		small, err = sysSmall.AnalyticLoss()
		if err != nil {
			b.Fatal(err)
		}
		large, err = sysLarge.AnalyticLoss()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(small.Loss, "loss@K→0")
	b.ReportMetric(small.Rho/(1+small.Rho), "rho/(1+rho)")
	b.ReportMetric(large.Loss, "loss@K→∞")
}

// BenchmarkSMDPPolicyIteration times the appendix-A solution of the §3
// decision model and reports the optimal loss and the heuristic's excess.
func BenchmarkSMDPPolicyIteration(b *testing.B) {
	var opt, heur smdp.Solution
	for i := 0; i < b.N; i++ {
		mod, err := smdp.NewModel(60, 25, 0.03)
		if err != nil {
			b.Fatal(err)
		}
		opt, err = mod.PolicyIteration(nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		heur, err = mod.Evaluate(mod.HeuristicPolicy(windowctl.OptimalWindowContent()))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(opt.LossFraction, "loss-optimal")
	b.ReportMetric(heur.LossFraction, "loss-heuristic")
	b.ReportMetric(float64(opt.Iterations), "pi-rounds")
}

// BenchmarkWindowSizeAblation sweeps policy element (2) around the
// heuristic optimum G* and reports the simulated loss for each setting —
// the sensitivity study behind the §4 heuristic.
func BenchmarkWindowSizeAblation(b *testing.B) {
	gStar := windowctl.OptimalWindowContent()
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
		mult := mult
		b.Run(fmt.Sprintf("G=%.2fx", mult), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				sys := windowctl.System{
					M: 25, RhoPrime: 0.75, K: 50, Seed: 11,
					WindowG: gStar * mult,
				}
				rep, err := sys.Simulate(windowctl.SimOptions{EndTime: benchSimEnd, Warmup: benchSimEnd / 10})
				if err != nil {
					b.Fatal(err)
				}
				loss = rep.Loss()
			}
			b.ReportMetric(loss, "loss")
		})
	}
}

// BenchmarkSplitRuleAblation compares the Theorem-1 split rule against the
// degraded variants (element (3) ablation).
func BenchmarkSplitRuleAblation(b *testing.B) {
	length := window.FixedG(windowctl.OptimalWindowContent())
	cases := []struct {
		name   string
		policy window.Policy
	}{
		{"older-first", window.Controlled{Length: length}},
		{"newer-first", window.ControlledVariant{Length: length, Side: window.Newer}},
		{"lagged-position", window.ControlledVariant{Length: length, PositionLag: 12}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				rep, err := sim.RunGlobal(sim.Config{
					Policy: c.policy, Tau: 1, M: 25, Lambda: 0.03, K: 50,
					EndTime: benchSimEnd, Warmup: benchSimEnd / 10, Seed: 13,
				})
				if err != nil {
					b.Fatal(err)
				}
				loss = rep.Loss()
			}
			b.ReportMetric(loss, "loss")
		})
	}
}

// BenchmarkDiscardAblation isolates policy element (4): the same FCFS
// schedule with and without sender-side discard.
func BenchmarkDiscardAblation(b *testing.B) {
	length := window.FixedG(windowctl.OptimalWindowContent())
	cases := []struct {
		name   string
		policy window.Policy
	}{
		{"discard-on", window.Controlled{Length: length}},
		{"discard-off", window.FCFS{Length: length}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var loss, util float64
			for i := 0; i < b.N; i++ {
				rep, err := sim.RunGlobal(sim.Config{
					Policy: c.policy, Tau: 1, M: 25, Lambda: 0.03, K: 50,
					EndTime: benchSimEnd, Warmup: benchSimEnd / 10, Seed: 17,
				})
				if err != nil {
					b.Fatal(err)
				}
				loss, util = rep.Loss(), rep.Utilization
			}
			b.ReportMetric(loss, "loss")
			b.ReportMetric(util, "utilization")
		})
	}
}

// BenchmarkSplitFractionAblation explores the §5 extension of non-binary
// splitting.
func BenchmarkSplitFractionAblation(b *testing.B) {
	for _, frac := range []float64{0.3, 0.5, 0.7} {
		frac := frac
		b.Run(fmt.Sprintf("frac=%.1f", frac), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				sys := windowctl.System{
					M: 25, RhoPrime: 0.75, K: 50, Seed: 19, SplitFraction: frac,
				}
				rep, err := sys.Simulate(windowctl.SimOptions{EndTime: benchSimEnd, Warmup: benchSimEnd / 10})
				if err != nil {
					b.Fatal(err)
				}
				loss = rep.Loss()
			}
			b.ReportMetric(loss, "loss")
		})
	}
}

// BenchmarkLengthVariabilityAblation studies Theorem 1's premise (i.i.d.
// message lengths) beyond the paper's fixed-length evaluation: loss under
// fixed, Erlang-4 and exponential lengths of equal mean.
func BenchmarkLengthVariabilityAblation(b *testing.B) {
	cases := []struct {
		name string
		law  windowctl.Distribution
	}{
		{"fixed", nil},
		{"erlang4", windowctl.ErlangLength(4, 25)},
		{"exponential", windowctl.ExponentialLength(25)},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var simLoss, anLoss float64
			for i := 0; i < b.N; i++ {
				sys := windowctl.System{M: 25, RhoPrime: 0.5, K: 75, Seed: 29, TxLengths: c.law}
				rep, err := sys.Simulate(windowctl.SimOptions{EndTime: benchSimEnd, Warmup: benchSimEnd / 10})
				if err != nil {
					b.Fatal(err)
				}
				an, err := sys.AnalyticLoss()
				if err != nil {
					b.Fatal(err)
				}
				simLoss, anLoss = rep.Loss(), an.Loss
			}
			b.ReportMetric(simLoss, "loss-sim")
			b.ReportMetric(anLoss, "loss-analytic")
		})
	}
}

// BenchmarkSimulatorFidelity times the global-view simulator against the
// full multi-station one on the same operating point and reports both
// losses (they must agree statistically; the tests assert it).
func BenchmarkSimulatorFidelity(b *testing.B) {
	sys := windowctl.System{M: 25, RhoPrime: 0.5, K: 50, Seed: 23}
	b.Run("global", func(b *testing.B) {
		var loss float64
		for i := 0; i < b.N; i++ {
			rep, err := sys.Simulate(windowctl.SimOptions{EndTime: benchSimEnd, Warmup: benchSimEnd / 10})
			if err != nil {
				b.Fatal(err)
			}
			loss = rep.Loss()
		}
		b.ReportMetric(loss, "loss")
	})
	b.Run("multistation-16", func(b *testing.B) {
		var loss float64
		for i := 0; i < b.N; i++ {
			rep, err := sys.SimulateDistributed(16, windowctl.SimOptions{EndTime: benchSimEnd, Warmup: benchSimEnd / 10})
			if err != nil {
				b.Fatal(err)
			}
			loss = rep.Loss()
		}
		b.ReportMetric(loss, "loss")
	})
}

// BenchmarkAnalyticCurve times a full analytic loss curve (one panel's
// controlled line) — the eq. 4.7 numerical machinery end to end.
func BenchmarkAnalyticCurve(b *testing.B) {
	model := queueing.ProtocolModel{Tau: 1, M: 25, RhoPrime: 0.75}
	for i := 0; i < b.N; i++ {
		for _, km := range sim.DefaultKOverM {
			if _, err := model.ControlledLoss(km * 25); err != nil {
				b.Fatal(err)
			}
		}
	}
}
