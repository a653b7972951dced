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
// message times and evaluates the whole grid in one call to the multi-K
// solver, which shares one convolution series across the constraints
// (discipline "all" tabulates every curve; a baseline with no steady
// state prints "-").
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

// gridCurves maps each -discipline value to the curves grid mode tabulates.
var gridCurves = map[string]queueing.Curves{
	"controlled": queueing.CurveControlled,
	"fcfs":       queueing.CurveFCFS,
	"lcfs":       queueing.CurveLCFS,
	"all":        queueing.AllCurves,
}

// gridMode evaluates a whole constraint grid in one LossGrids call (one
// shared convolution series per service law and quadrature grid instead
// of one per constraint) and prints a column per curve.  A baseline with
// no steady state prints "-".
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
	want, ok := gridCurves[disc]
	if !ok {
		fmt.Fprintf(os.Stderr, "windowloss: unknown discipline %q\n", disc)
		os.Exit(2)
	}
	model := queueing.ProtocolModel{Tau: tau, M: m, RhoPrime: rho}
	grids, err := model.LossGrids(ks, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "windowloss:", err)
		os.Exit(1)
	}

	type column struct {
		name string
		loss []float64
	}
	var cols []column
	if grids.Controlled != nil {
		loss := make([]float64, len(ks))
		for i, r := range grids.Controlled {
			loss[i] = r.Loss
		}
		cols = append(cols, column{"controlled", loss})
	}
	if grids.FCFS != nil {
		cols = append(cols, column{"fcfs", grids.FCFS})
	}
	if grids.LCFS != nil {
		cols = append(cols, column{"lcfs", grids.LCFS})
	}
	title := fmt.Sprintf("rho'=%.2f M=%g tau=%g", rho, m, tau)
	if len(cols) == 1 {
		title += " discipline=" + disc
		cols[0].name = "p(loss)"
	}
	fmt.Println(title)
	fmt.Printf("%8s %10s", "K/M", "K")
	for _, c := range cols {
		fmt.Printf(" %12s", c.name)
	}
	fmt.Println()
	for i := range ks {
		fmt.Printf("%8.2f %10.1f", kmVals[i], ks[i])
		for _, c := range cols {
			fmt.Printf(" %12s", fmtMaybe(c.loss[i]))
		}
		fmt.Println()
	}
}

func fmtMaybe(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.6f", v)
}
