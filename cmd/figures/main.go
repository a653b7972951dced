// Command figures regenerates the evaluation of the paper — every panel
// of figure 7 — as text tables: the analytic loss curves (equation 4.7
// for the controlled protocol, the Beneš series for the FCFS baseline,
// the busy-period transform for LCFS) together with corroborating
// simulation points, exactly the content of the paper's six plots.
//
// Usage:
//
//	figures [-panel all|RHO,M] [-sim] [-baselines] [-metrics] [-messages N]
//	        [-seed S] [-workers N] [-protocol NAME]
//	        [-degradation] [-error-rates 0,0.01,...]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// Examples:
//
//	figures                        # all six panels, analytic only
//	figures -sim                   # with controlled-protocol simulation
//	figures -sim -baselines        # also simulate FCFS and LCFS
//	figures -panel 0.75,25 -sim    # a single panel
//	figures -sim -metrics          # print per-run slot metrics tables too
//	figures -sim -workers 1        # sequential evaluation
//	figures -degradation           # loss vs. feedback-error rate per panel
//	figures -protocol tournament -panel 0.5,25   # a zoo protocol's curve
//
// -protocol swaps which registered protocol (see docs/PROTOCOLS.md) the
// simulated curve runs — against the unchanged analytic curves and
// FCFS/LCFS baselines — in both the figure-7 and -degradation modes;
// empty keeps the paper's controlled protocol.
//
// -degradation switches the harness into its imperfect-feedback mode: for
// every constraint of each selected panel the controlled protocol is
// simulated across a grid of feedback-error rates (-error-rates; all
// three fault kinds — erasures, false collisions, missed collisions — at
// the grid probability), and the panel table shows loss versus error
// rate.  The rate-0 column is bit-identical to the perfect-feedback
// simulation with the same seed; with -metrics the fault and recovery
// counters of every faulty run are printed too, each run's conservation
// invariants verified.
//
// Each panel is a view over the sweep grid engine: its analytic solve and
// per-(constraint, protocol) simulation runs are spread over -workers
// goroutines (0 = GOMAXPROCS).  The output is bit-identical at every
// worker count, -workers 1 included.
//
// -metrics (which implies -sim) attaches a slot-level collector to every
// simulation run and prints each panel's metrics table — idle / success /
// collision slots, window splits, utilization and the element-(4) discard
// accounting of §4.2; every instrumented run's conservation invariants
// are verified and a violation fails the command.  -cpuprofile and
// -memprofile write pprof profiles of the whole evaluation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"windowctl"
	"windowctl/internal/profiling"
)

func main() {
	panelFlag := flag.String("panel", "all", "panel selector: \"all\" or \"RHO,M\" (e.g. \"0.75,25\")")
	simFlag := flag.Bool("sim", false, "corroborate the controlled curve by simulation")
	baseFlag := flag.Bool("baselines", false, "also simulate the FCFS and LCFS baselines (implies -sim)")
	chartFlag := flag.Bool("chart", false, "render each panel as an ASCII chart too")
	messages := flag.Float64("messages", 1e5, "approximate offered messages per simulation run")
	seed := flag.Uint64("seed", 1983, "simulation seed")
	workers := flag.Int("workers", 0, "worker count (0 = GOMAXPROCS, 1 = sequential; output is identical either way)")
	metricsFlag := flag.Bool("metrics", false, "collect and print per-run slot metrics (implies -sim; verifies conservation invariants)")
	protoFlag := flag.String("protocol", "", "registered protocol for the simulated curve (implies -sim; empty = controlled): "+strings.Join(windowctl.ProtocolNames(), " | "))
	degradation := flag.Bool("degradation", false, "evaluate loss vs. feedback-error rate instead of the figure-7 curves")
	errorRates := flag.String("error-rates", "", "comma-separated feedback-error grid for -degradation (default 0,0.01,0.02,0.05,0.1,0.2)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
		os.Exit(2)
	}
	// Validate numeric flags up front: a negative worker count or an
	// out-of-range probability is a usage error, not a hang or a mid-run
	// failure.
	if *workers < 0 {
		usage("-workers must be >= 0, got %d", *workers)
	}
	if !(*messages > 0) {
		usage("-messages must be positive, got %v", *messages)
	}
	rates, err := parseRates(*errorRates)
	if err != nil {
		usage("%v", err)
	}
	if len(rates) > 0 && !*degradation {
		usage("-error-rates only applies to -degradation")
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
		}
	}()

	specs, err := selectPanels(*panelFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	opt := windowctl.Figure7Options{
		Disable:   !*simFlag && !*baseFlag && !*metricsFlag && *protoFlag == "",
		Baselines: *baseFlag,
		Messages:  *messages,
		Seed:      *seed,
		Workers:   *workers,
		Metrics:   *metricsFlag,
		Protocol:  *protoFlag,
	}

	if *degradation {
		dpanels, err := windowctl.DegradationPanels(specs, windowctl.DegradationOptions{
			SimOptions: opt, ErrorRates: rates,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		for _, panel := range dpanels {
			fmt.Println(panel.Format())
			if *metricsFlag {
				fmt.Println(panel.FaultTable())
			}
		}
		return
	}

	panels, err := windowctl.Figure7Panels(specs, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	for _, panel := range panels {
		fmt.Println(panel.Format())
		if *metricsFlag {
			fmt.Println(panel.MetricsTable())
		}
		if *chartFlag {
			fmt.Println(panel.Chart(64, 18))
		}
	}
}

// parseRates parses the -error-rates grid; every value must be a
// probability, and 0 is allowed (it anchors the curve on the baseline).
func parseRates(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -error-rates value %q: %v", part, err)
		}
		if !(v >= 0 && v <= 1) {
			return nil, fmt.Errorf("-error-rates value %v outside [0, 1]", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func selectPanels(sel string) ([]windowctl.PanelSpec, error) {
	if sel == "all" {
		return windowctl.AllFigure7Panels(), nil
	}
	parts := strings.Split(sel, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -panel %q (want \"all\" or \"RHO,M\")", sel)
	}
	rho, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return nil, fmt.Errorf("bad rho in -panel: %v", err)
	}
	m, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return nil, fmt.Errorf("bad M in -panel: %v", err)
	}
	if rho <= 0 || m <= 0 {
		return nil, fmt.Errorf("-panel values must be positive")
	}
	return []windowctl.PanelSpec{{RhoPrime: rho, M: m}}, nil
}
