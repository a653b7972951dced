// Command validate runs the reproduction's cross-model validation battery
// and prints a fidelity report: at each operating point it compares
//
//   - the §3 semi-Markov decision model (exact within its span-only state),
//   - the §4 impatient-queue model (equation 4.7, plain and coupled),
//   - direct integration of the §4.1 integro-differential equation, and
//   - the event simulation (ground truth),
//
// and checks the expected relationships (SMDP <= eq4.7 ~= ODE <= sim; see
// DESIGN.md §8).  It is EXPERIMENTS.md as executable code.
//
// Usage:
//
//	validate [-messages 100000] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"windowctl"
	"windowctl/internal/queueing"
	"windowctl/internal/sim"
	"windowctl/internal/smdp"
	"windowctl/internal/window"
)

func main() {
	messages := flag.Float64("messages", 1e5, "offered messages per simulation point")
	seed := flag.Uint64("seed", 7, "simulation seed")
	flag.Parse()

	points := []struct {
		rho float64
		m   int
		km  float64
	}{
		{0.25, 25, 1}, {0.25, 25, 2},
		{0.50, 25, 1}, {0.50, 25, 2},
		{0.75, 25, 1}, {0.75, 25, 2},
		{0.50, 100, 1},
	}

	// Solve eq 4.7 once per (rho', M) group through the batched multi-K
	// solver: all of a group's constraints share one convolution series.
	type group struct{ rho, m float64 }
	gridKs := map[group][]float64{}
	for _, pt := range points {
		g := group{pt.rho, float64(pt.m)}
		gridKs[g] = append(gridKs[g], pt.km*float64(pt.m))
	}
	eq47 := map[group][]queueing.Result{}
	for g, ks := range gridKs {
		model := queueing.ProtocolModel{Tau: 1, M: g.m, RhoPrime: g.rho}
		grids, err := model.LossGrids(ks, queueing.CurveControlled)
		if err != nil {
			fail(err)
		}
		eq47[g] = grids.Controlled
	}
	gridPos := map[group]int{}

	fmt.Printf("%8s %5s %5s | %9s %9s %9s %9s | %9s  %s\n",
		"rho'", "M", "K/M", "smdp", "eq4.7", "coupled", "ode", "sim", "verdict")
	failures := 0
	for _, pt := range points {
		k := pt.km * float64(pt.m)
		lambda := pt.rho / float64(pt.m)

		// §3 decision model (exact discrete occupancy).
		p := -math.Expm1(-lambda)
		mod, err := smdp.NewModel(int(k), pt.m, p)
		if err != nil {
			fail(err)
		}
		opt, err := mod.PolicyIteration(nil, 0)
		if err != nil {
			fail(err)
		}

		// §4 queueing model, plain (from the batched grid) and coupled.
		g := group{pt.rho, float64(pt.m)}
		plain := eq47[g][gridPos[g]]
		gridPos[g]++
		model := queueing.ProtocolModel{Tau: 1, M: float64(pt.m), RhoPrime: pt.rho}
		curve, err := model.ControlledLossCurve([]float64{k / 2, k})
		if err != nil {
			fail(err)
		}
		coupled := curve[len(curve)-1]

		// §4.1 integro-differential equation, solved directly.
		svc, err := model.Service(model.WindowContent(k))
		if err != nil {
			fail(err)
		}
		ode, err := queueing.UnfinishedWorkODE{Lambda: lambda, Service: svc}.Solve(k)
		if err != nil {
			fail(err)
		}

		// Ground truth.
		cfg := sim.Config{
			Policy: window.Controlled{Length: window.FixedG(windowctl.OptimalWindowContent())},
			Tau:    1, M: float64(pt.m), Lambda: lambda, K: k,
			EndTime: *messages / lambda, Warmup: *messages / lambda / 20, Seed: *seed,
		}
		rep, err := sim.RunGlobal(cfg)
		if err != nil {
			fail(err)
		}
		simLoss := rep.Loss()

		verdict := "ok"
		if !(opt.LossFraction <= plain.Loss+1e-6) {
			verdict = "FAIL smdp>eq4.7"
		}
		if math.Abs(plain.Loss-ode.Loss) > 0.02*plain.Loss+1e-3 {
			verdict = "FAIL ode!=series"
		}
		if math.Abs(plain.Loss-simLoss) > 0.35*simLoss+0.01 {
			verdict = "FAIL eq4.7 vs sim"
		}
		if verdict != "ok" {
			failures++
		}
		fmt.Printf("%8.2f %5d %5.1f | %9.5f %9.5f %9.5f %9.5f | %9.5f  %s\n",
			pt.rho, pt.m, pt.km, opt.LossFraction, plain.Loss, coupled.Loss, ode.Loss, simLoss, verdict)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "validate: %d point(s) failed\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall validation relationships hold (smdp <= eq4.7 ≈ ode ≈ coupled <= sim within tolerance)")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "validate:", err)
	os.Exit(1)
}
