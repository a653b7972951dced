// Command windowloss evaluates the analytic loss models at one operating
// point: equation 4.7 for the controlled protocol, or the uncontrolled
// FCFS/LCFS baselines of [Kurose 83].
//
// Usage:
//
//	windowloss -rho 0.75 -m 25 -k 50 [-discipline controlled|fcfs|lcfs] [-tau 1]
//	windowloss -rho 0.75 -m 25 -kms 0.5,1,2,4 [-discipline all]
//
// K is given in absolute time (units of τ); use -km to give it in message
// times instead.  -kms takes a comma-separated list of constraints in
// message times and evaluates the whole grid through the batched multi-K
// solvers, which share one convolution series across the constraints
// (discipline "all" tabulates every curve).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"windowctl"
	"windowctl/internal/queueing"
)

func main() {
	rho := flag.Float64("rho", 0.5, "normalized offered load ρ' = λ'·M·τ")
	m := flag.Float64("m", 25, "message length M in slots")
	tau := flag.Float64("tau", 1, "slot time τ (propagation delay)")
	k := flag.Float64("k", 0, "time constraint K (absolute time)")
	km := flag.Float64("km", 0, "time constraint in message times (overrides -k)")
	kms := flag.String("kms", "", "comma-separated constraint grid in message times (batched mode)")
	disc := flag.String("discipline", "controlled", "controlled | fcfs | lcfs | all (grid mode only)")
	flag.Parse()

	if *kms != "" {
		gridMode(*rho, *m, *tau, *kms, *disc)
		return
	}

	constraint := *k
	if *km > 0 {
		constraint = *km * *m * *tau
	}
	if constraint <= 0 {
		fmt.Fprintln(os.Stderr, "windowloss: provide a positive -k, -km or -kms")
		os.Exit(2)
	}
	var d windowctl.Discipline
	switch *disc {
	case "controlled":
		d = windowctl.Controlled
	case "fcfs":
		d = windowctl.FCFS
	case "lcfs":
		d = windowctl.LCFS
	default:
		fmt.Fprintf(os.Stderr, "windowloss: unknown discipline %q\n", *disc)
		os.Exit(2)
	}
	sys := windowctl.System{Tau: *tau, M: *m, RhoPrime: *rho, K: constraint, Discipline: d}
	res, err := sys.AnalyticLoss()
	if err != nil {
		fmt.Fprintln(os.Stderr, "windowloss:", err)
		os.Exit(1)
	}
	fmt.Printf("discipline        %s\n", d)
	fmt.Printf("lambda'           %.6g msgs/time\n", sys.Lambda())
	fmt.Printf("window content G  %.4f msgs\n", res.WindowContent)
	fmt.Printf("rho (w/overhead)  %.4f\n", res.Rho)
	if !math.IsNaN(res.ServerIdle) {
		fmt.Printf("P(server idle)    %.4f\n", res.ServerIdle)
	}
	fmt.Printf("K                 %.4g (= %.3g message times)\n", constraint, constraint/(*m**tau))
	fmt.Printf("p(loss)           %.6f\n", res.Loss)
}

// gridMode evaluates a whole constraint grid through the batched multi-K
// solvers (one shared convolution series per service law and quadrature
// grid instead of one per constraint).
func gridMode(rho, m, tau float64, kms, disc string) {
	var ks, kmVals []float64
	for _, f := range strings.Split(kms, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "windowloss: bad -kms entry %q\n", f)
			os.Exit(2)
		}
		kmVals = append(kmVals, v)
		ks = append(ks, v*m*tau)
	}
	model := queueing.ProtocolModel{Tau: tau, M: m, RhoPrime: rho}

	switch disc {
	case "all":
		grids, err := model.LossGrids(ks, queueing.AllCurves)
		if err != nil {
			fmt.Fprintln(os.Stderr, "windowloss:", err)
			os.Exit(1)
		}
		fmt.Printf("rho'=%.2f M=%g tau=%g\n", rho, m, tau)
		fmt.Printf("%8s %10s %12s %12s %12s\n", "K/M", "K", "controlled", "fcfs", "lcfs")
		for i := range ks {
			fmt.Printf("%8.2f %10.1f %12.6f %12s %12s\n",
				kmVals[i], ks[i], grids.Controlled[i].Loss,
				fmtMaybe(grids.FCFS[i]), fmtMaybe(grids.LCFS[i]))
		}
		return
	case "controlled":
		res, err := model.ControlledLossGrid(ks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "windowloss:", err)
			os.Exit(1)
		}
		printGrid(rho, m, tau, disc, kmVals, ks, func(i int) float64 { return res[i].Loss })
	case "fcfs":
		losses, err := model.FCFSLossGrid(ks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "windowloss:", err)
			os.Exit(1)
		}
		printGrid(rho, m, tau, disc, kmVals, ks, func(i int) float64 { return losses[i] })
	case "lcfs":
		losses, err := model.LCFSLossGrid(ks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "windowloss:", err)
			os.Exit(1)
		}
		printGrid(rho, m, tau, disc, kmVals, ks, func(i int) float64 { return losses[i] })
	default:
		fmt.Fprintf(os.Stderr, "windowloss: unknown discipline %q\n", disc)
		os.Exit(2)
	}
}

func printGrid(rho, m, tau float64, disc string, kmVals, ks []float64, loss func(int) float64) {
	fmt.Printf("rho'=%.2f M=%g tau=%g discipline=%s\n", rho, m, tau, disc)
	fmt.Printf("%8s %10s %12s\n", "K/M", "K", "p(loss)")
	for i := range ks {
		fmt.Printf("%8.2f %10.1f %12s\n", kmVals[i], ks[i], fmtMaybe(loss(i)))
	}
}

func fmtMaybe(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.6f", v)
}
