// Command windowsim simulates the window protocol at one operating point
// and prints the measured loss, delay and channel statistics.  It runs
// the global-view simulator, fed by one Poisson stream.  With -stations N
// it runs the multi-station simulator, whose N Poisson stations merge
// into that same stream; with -feedback-error-per-station it runs every
// station's own state machines, each arrival marked with a uniformly
// drawn station.
//
// With -metrics the run is instrumented with a slot-level collector: the
// idle/success/collision slot counts, window splits, element-(4)
// discards and the accepted-wait histogram are printed after the report,
// and the run's conservation invariants (see docs/OBSERVABILITY.md) are
// verified.  -cpuprofile and -memprofile write pprof profiles.
//
// Usage:
//
//	windowsim -rho 0.75 -m 25 -km 2 [-discipline controlled|fcfs|lcfs|random|tournament|acdc]
//	          [-protocol NAME] [-stations N] [-messages 1e5] [-seed S] [-g G]
//	          [-feedback-error P] [-feedback-error-erasure P]
//	          [-feedback-error-false-collision P] [-feedback-error-missed-collision P]
//	          [-feedback-error-seed S] [-feedback-error-per-station]
//	          [-metrics] [-cpuprofile FILE] [-memprofile FILE]
//
// The -feedback-error family injects imperfect channel feedback: erased
// slots, false collisions and missed collisions at the given per-slot
// probabilities, with the protocol's recovery path enabled.
// -feedback-error sets all three kinds at once; the per-kind flags
// override it individually.  With -feedback-error-per-station (multi-
// station runs only) each station senses the channel independently and
// stations can desynchronize — detected desyncs and recoveries appear in
// the -metrics output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"windowctl"
	"windowctl/internal/profiling"
)

func main() {
	rho := flag.Float64("rho", 0.5, "normalized offered load ρ' = λ'·M·τ")
	m := flag.Float64("m", 25, "message length M in slots")
	tau := flag.Float64("tau", 1, "slot time τ")
	k := flag.Float64("k", 0, "time constraint K (absolute)")
	km := flag.Float64("km", 2, "time constraint in message times (used when -k is 0)")
	disc := flag.String("discipline", "controlled", "controlled | fcfs | lcfs | random | tournament | acdc")
	proto := flag.String("protocol", "", "registered protocol name (the MAC zoo; overrides -discipline): "+strings.Join(windowctl.ProtocolNames(), " | "))
	stations := flag.Int("stations", 0, "run the full multi-station simulator with N stations (0 = global view)")
	messages := flag.Float64("messages", 1e5, "approximate offered messages")
	seed := flag.Uint64("seed", 1, "random seed")
	g := flag.Float64("g", 0, "mean window content G (0 = heuristic optimum)")
	replications := flag.Int("replications", 0, "run N independent replications and report a cross-replication CI")
	expLen := flag.Bool("explen", false, "exponential message lengths (mean M·τ) instead of fixed")
	metricsFlag := flag.Bool("metrics", false, "collect and print slot-level metrics (verifies conservation invariants)")
	feAll := flag.Float64("feedback-error", 0, "per-slot probability applied to all three feedback-fault kinds")
	feErasure := flag.Float64("feedback-error-erasure", 0, "per-slot erasure probability (overrides -feedback-error)")
	feFalse := flag.Float64("feedback-error-false-collision", 0, "per-slot false-collision probability (overrides -feedback-error)")
	feMissed := flag.Float64("feedback-error-missed-collision", 0, "per-slot missed-collision probability (overrides -feedback-error)")
	feSeed := flag.Uint64("feedback-error-seed", 0, "fault-schedule seed (0 = derive from -seed)")
	fePerStation := flag.Bool("feedback-error-per-station", false, "stations sense the channel independently and can desynchronize (needs -stations)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "windowsim: "+format+"\n", args...)
		os.Exit(2)
	}
	// Validate numeric flags up front: a negative count or an out-of-range
	// probability is a usage error, not something to discover mid-run.
	if !(*messages > 0) {
		usage("-messages must be positive, got %v", *messages)
	}
	if !(*tau > 0) || !(*m > 0) || !(*rho > 0) {
		usage("-tau, -m and -rho must be positive (got %v, %v, %v)", *tau, *m, *rho)
	}
	if *k < 0 || (*k == 0 && !(*km > 0)) {
		usage("need a positive constraint: -k %v / -km %v", *k, *km)
	}
	if *replications < 0 {
		usage("-replications must be >= 0, got %d", *replications)
	}
	if *stations < 0 {
		usage("-stations must be >= 0, got %d", *stations)
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	kindRate := func(name string, v float64) float64 {
		if explicit[name] {
			return v
		}
		return *feAll
	}
	faults := windowctl.FaultConfig{
		Rates: windowctl.FaultRates{
			Erasure:         kindRate("feedback-error-erasure", *feErasure),
			FalseCollision:  kindRate("feedback-error-false-collision", *feFalse),
			MissedCollision: kindRate("feedback-error-missed-collision", *feMissed),
		},
		Seed:       *feSeed,
		PerStation: *fePerStation,
	}
	if err := faults.Validate(); err != nil {
		usage("%v", err)
	}
	if faults.PerStation && *stations == 0 {
		usage("-feedback-error-per-station needs -stations > 0 (the global view has no stations to desynchronize)")
	}
	if faults.Seed == 0 {
		faults.Seed = *seed
	}

	stopProfiles, profErr := profiling.Start(*cpuProfile, *memProfile)
	if profErr != nil {
		fmt.Fprintln(os.Stderr, "windowsim:", profErr)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "windowsim:", err)
		}
	}()

	constraint := *k
	if constraint == 0 {
		constraint = *km * *m * *tau
	}
	if !(constraint > 0) || constraint > 1e15 {
		// An overflow-scale K would previously turn into a negative
		// histogram bin count (float→int overflow) and panic under -metrics.
		usage("constraint K must be positive and finite (≤ 1e15), got %v", constraint)
	}
	// -protocol selects any registered zoo protocol by name; -discipline
	// remains the classic enum spelling.  Protocol names that correspond
	// to disciplines are normalized by the library, so both routes reach
	// the same construction.
	name := *disc
	if *proto != "" {
		if explicit["discipline"] {
			usage("set -discipline or -protocol, not both")
		}
		name = *proto
	}
	sys := windowctl.System{
		Tau: *tau, M: *m, RhoPrime: *rho, K: constraint,
		Seed: *seed, WindowG: *g,
	}
	if d, err := windowctl.ParseDiscipline(name); err == nil {
		sys.Discipline = d
	} else {
		sys.Protocol = name
	}
	if _, err := sys.Policy(); err != nil {
		usage("%v", err)
	}
	if *expLen {
		sys.TxLengths = windowctl.ExponentialLength(*m * *tau)
	}
	opt := windowctl.SimOptions{EndTime: *messages / sys.Lambda(), Faults: faults}
	var sm *windowctl.SlotMetrics
	if *metricsFlag {
		if *replications > 1 {
			fmt.Fprintln(os.Stderr, "windowsim: -metrics does not combine with -replications (replications run concurrently)")
			os.Exit(2)
		}
		// Clamp before the float→int conversion (which overflows past int
		// range); longer waits land in the overflow bin.
		b := constraint / *tau
		if !(b >= 0) || b > 1<<20 {
			b = 1 << 20
		}
		bins := int(b)
		sm = windowctl.NewSlotMetrics(*tau, bins+64)
		opt.Collector = sm
	}

	if *replications > 1 {
		r, err := sys.SimulateReplicated(*replications, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "windowsim:", err)
			os.Exit(1)
		}
		fmt.Printf("discipline          %s (%d replications)\n", name, *replications)
		fmt.Printf("loss                %.5f ± %.5f (95%% t-interval)\n", r.LossMean, r.LossHalfWidth)
		fmt.Printf("mean true wait      %.4f ± %.4f\n", r.WaitMean, r.WaitHalfWidth)
		return
	}

	var rep windowctl.Report
	var err error
	if *stations > 0 {
		rep, err = sys.SimulateDistributed(*stations, opt)
	} else {
		rep, err = sys.Simulate(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "windowsim:", err)
		os.Exit(1)
	}

	lo, hi := rep.LossCI(0.95)
	fmt.Printf("discipline          %s\n", name)
	fmt.Printf("offered messages    %d\n", rep.Offered)
	fmt.Printf("loss                %.5f  (95%% CI [%.5f, %.5f])\n", rep.Loss(), lo, hi)
	fmt.Printf("  at sender         %d\n", rep.LostSender)
	fmt.Printf("  late at receiver  %d\n", rep.LostLate)
	fmt.Printf("  stranded pending  %d\n", rep.LostPending)
	fmt.Printf("mean true wait      %.4f  (max %.4f)\n", rep.TrueWait.Mean(), rep.TrueWait.Max())
	fmt.Printf("sched slots/msg     %.4f\n", rep.SchedulingSlots.Mean())
	fmt.Printf("channel utilization %.4f\n", rep.Utilization)
	fmt.Printf("idle/collision slots %d / %d\n", rep.IdleSlots, rep.CollisionSlots)
	fmt.Printf("max backlog         %d\n", rep.MaxBacklog)

	if sm != nil {
		fmt.Printf("\nslot metrics (invariants verified)\n%s", sm.Format())
	}
}
