// Command sweep evaluates the protocol across a parameter grid and emits
// CSV for plotting — now at phase-diagram scale: the grid is the cross
// product of the -loads, -m, -km, -disciplines and -error-rates axes,
// cache misses fan out over all cores (-workers), and a content-addressed
// result cache (-cache DIR) makes re-runs, resumed runs and superset
// grids incremental.  Output is bit-identical at any worker count and
// across cold/warm cache runs.
//
// Usage:
//
//	sweep [-m 25] [-loads 0.25,0.5,0.75] [-km 0.5,1,2,4]
//	      [-disciplines controlled,fcfs,lcfs] [-protocol tournament,acdc]
//	      [-format wide|long|heatmap]
//	      [-sim] [-messages 50000] [-replications N] [-seed 1983]
//	      [-workers N] [-cache DIR] [-cache-stats] [-points BUDGET]
//	      [-error-rates 0,0.01,0.05]
//	      [-feedback-error P] [-feedback-error-erasure P]
//	      [-feedback-error-false-collision P] [-feedback-error-missed-collision P]
//	      [-feedback-error-seed S]
//	      [-metrics] [-cpuprofile FILE] [-memprofile FILE] > out.csv
//
// Formats: "wide" (default) emits one row per grid cell with one
// analytic and one simulated column per discipline — the shape this
// command has always produced, extended with an error_rate column after
// k.  "long" emits one row per point with every measurement (CIs, mean
// wait, utilization, counts).  "heatmap" emits one loss-surface matrix
// (ρ′ rows × K/M columns) per (M, discipline, ε).
//
// The discipline axis ranges over the full MAC zoo: -protocol is the
// zoo spelling of -disciplines (same axis, overrides the default list),
// so cross-protocol comparison surfaces — the paper's protocol against
// the tournament MAC and AC/DC-RA admission control — come out of one
// run.  Zoo protocols without an analytic model leave their analytic
// column empty and simulate like any other discipline.
//
// The -error-rates axis sweeps feedback degradation: at grid value ε the
// injected per-kind fault probabilities are the -feedback-error family
// scaled by ε (all three kinds at ε when no family flag is given), with
// common random numbers across ε so cells differ only through the
// injected faults.  Giving only the -feedback-error family (no
// -error-rates) injects those rates into every simulated point, as
// before.  Analytic columns always stay perfect-feedback for comparison.
//
// With -sim -metrics one shared slot-level collector aggregates every
// executed simulation run of the grid — each run is still individually
// verified against the conservation invariants — and the grid totals are
// printed to stderr after the CSV, so the CSV on stdout stays clean.
// Cache hits contribute nothing to -metrics: their runs happened in an
// earlier sweep.  -cpuprofile and -memprofile write pprof profiles.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"windowctl"
	"windowctl/internal/profiling"
	"windowctl/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		// -h lands here as flag.ErrHelp: the usage text was already
		// printed and asking for help is not an error.
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
}

// run is the whole command behind a testable seam: parse args, build the
// sweep space, run the driver, emit.  Everything the user sees goes
// through stdout/stderr, so tests can pin bytes.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ms := fs.String("m", "25", "comma-separated message lengths in slots")
	loads := fs.String("loads", "0.25,0.5,0.75", "comma-separated offered loads ρ'")
	kms := fs.String("km", "0.5,1,1.5,2,3,4,6,8", "comma-separated constraints in message times")
	disciplines := fs.String("disciplines", "controlled,fcfs,lcfs", "comma-separated disciplines (controlled,fcfs,lcfs,random,tournament,acdc)")
	proto := fs.String("protocol", "", "comma-separated protocol names for the discipline axis (the MAC zoo; overrides -disciplines)")
	format := fs.String("format", "wide", "output format: wide, long or heatmap")
	sim := fs.Bool("sim", false, "add simulated loss columns")
	messages := fs.Float64("messages", 5e4, "offered messages per simulation point")
	replications := fs.Int("replications", 1, "independent replications per simulated point (>= 2 adds cross-replication CIs; requires -sim)")
	seed := fs.Uint64("seed", 1983, "simulation seed (must be nonzero)")
	workers := fs.Int("workers", 0, "concurrent point evaluations (0 = all cores, 1 = serial; results identical at any setting)")
	cacheDir := fs.String("cache", "", "content-addressed result cache directory (reused and extended across runs)")
	cacheStats := fs.Bool("cache-stats", false, "print cache hit/miss statistics to stderr (requires -cache)")
	points := fs.Int("points", 1_000_000, "refuse grids larger than this many points (0 = unlimited)")
	errorRates := fs.String("error-rates", "", "comma-separated feedback-error grid values ε (requires -sim)")
	feAll := fs.Float64("feedback-error", 0, "per-slot probability applied to all three feedback-fault kinds (requires -sim)")
	feErasure := fs.Float64("feedback-error-erasure", 0, "per-slot erasure probability (overrides -feedback-error)")
	feFalse := fs.Float64("feedback-error-false-collision", 0, "per-slot false-collision probability (overrides -feedback-error)")
	feMissed := fs.Float64("feedback-error-missed-collision", 0, "per-slot missed-collision probability (overrides -feedback-error)")
	feSeed := fs.Uint64("feedback-error-seed", 0, "fault-schedule seed (0 = derive from -seed)")
	metricsFlag := fs.Bool("metrics", false, "aggregate slot-level metrics over the grid and print them to stderr (requires -sim)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Validate flags up front: a bad probability or a zero seed is a
	// usage error, not something to discover mid-grid.
	if !(*messages > 0) || math.IsInf(*messages, 0) {
		return fmt.Errorf("-messages must be positive and finite, got %v", *messages)
	}
	if *seed == 0 {
		return fmt.Errorf("-seed 0 is not a valid seed (0 is reserved as the derive-from-base sentinel of -feedback-error-seed); pick any nonzero value")
	}
	if *replications > 1 && !*sim {
		return fmt.Errorf("-replications requires -sim (there is nothing to replicate analytically)")
	}
	if *metricsFlag && !*sim {
		return fmt.Errorf("-metrics requires -sim (there is nothing to collect from analytic rows)")
	}
	if *cacheStats && *cacheDir == "" {
		return fmt.Errorf("-cache-stats requires -cache (there are no statistics without a cache)")
	}

	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	kindRate := func(name string, v float64) float64 {
		if explicit[name] {
			return v
		}
		return *feAll
	}
	mix := windowctl.FaultRates{
		Erasure:         kindRate("feedback-error-erasure", *feErasure),
		FalseCollision:  kindRate("feedback-error-false-collision", *feFalse),
		MissedCollision: kindRate("feedback-error-missed-collision", *feMissed),
	}
	faulted := !mix.Zero() || explicit["error-rates"]
	if faulted && !*sim {
		return fmt.Errorf("-error-rates and the -feedback-error family require -sim (faults only exist in simulation)")
	}

	space := sweep.Space{
		Seed:         *seed,
		FaultSeed:    *feSeed,
		Replications: *replications,
	}
	if *sim {
		space.Messages = *messages
	}
	var err error
	if space.Loads, err = parseFloats(*loads); err != nil {
		return fmt.Errorf("-loads: %w", err)
	}
	if space.Ms, err = parseFloats(*ms); err != nil {
		return fmt.Errorf("-m: %w", err)
	}
	if space.KOverM, err = parseFloats(*kms); err != nil {
		return fmt.Errorf("-km: %w", err)
	}
	// -protocol is the zoo spelling of the discipline axis; it replaces
	// the -disciplines default but may not fight an explicit one.
	discFlag, discList := "-disciplines", *disciplines
	if *proto != "" {
		if explicit["disciplines"] {
			return fmt.Errorf("set -disciplines or -protocol, not both")
		}
		discFlag, discList = "-protocol", *proto
	}
	for _, name := range strings.Split(discList, ",") {
		d, err := sweep.ParseDiscipline(strings.TrimSpace(name))
		if err != nil {
			return fmt.Errorf("%s: %w", discFlag, err)
		}
		space.Disciplines = append(space.Disciplines, d)
	}
	switch {
	case explicit["error-rates"]:
		// Sweep the ε axis; per-kind flags weigh the mix at ε = 1 (all
		// three kinds equally when no family flag is given).
		if space.ErrorRates, err = parseAxis(*errorRates); err != nil {
			return fmt.Errorf("-error-rates: %w", err)
		}
		space.Mix = mix
	case !mix.Zero():
		// Family flags without an ε axis: inject exactly those rates into
		// every simulated point (the pre-axis behavior, ε = 1).
		space.ErrorRates = []float64{1}
		space.Mix = mix
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
		}
	}()

	opt := sweep.Options{Workers: *workers, MaxPoints: *points}
	if *metricsFlag {
		opt.Metrics = &windowctl.SlotMetrics{}
	}
	if *cacheDir != "" {
		if opt.Cache, err = sweep.Open(*cacheDir); err != nil {
			return err
		}
	}

	outs, err := sweep.Run(space, opt)
	if err != nil {
		return err
	}

	norm, err := space.Normalize()
	if err != nil {
		return err
	}
	switch *format {
	case "wide":
		err = sweep.WriteWideCSV(stdout, norm, outs)
	case "long":
		err = sweep.WriteCSV(stdout, outs)
	case "heatmap":
		err = sweep.WriteHeatmaps(stdout, norm, outs)
	default:
		return fmt.Errorf("-format must be wide, long or heatmap, got %q", *format)
	}
	if err != nil {
		return err
	}

	if opt.Metrics != nil {
		fmt.Fprintf(stderr, "grid slot metrics (every executed run's invariants verified)\n%s", opt.Metrics.Format())
	}
	if *cacheStats {
		st := opt.Cache.Stats()
		fmt.Fprintf(stderr, "cache %s: %d entries (%d loaded, %d skipped), %d hits / %d misses (%.1f%% hits)\n",
			st.Dir, st.Entries, st.Loaded, st.Skipped, st.Hits, st.Misses, 100*st.HitRate())
	}
	return nil
}

// parseFloats parses a comma-separated positive axis, rejecting the
// silent-footgun inputs: NaN/Inf (ParseFloat accepts them) and duplicate
// values (almost always a flag typo, and they would double-count rows in
// every emitted surface).
func parseFloats(s string) ([]float64, error) {
	out, err := parseList(s)
	if err != nil {
		return nil, err
	}
	for _, v := range out {
		if v <= 0 {
			return nil, fmt.Errorf("values must be positive, got %v", v)
		}
	}
	return out, nil
}

// parseAxis is parseFloats for axes that admit zero (error rates).
func parseAxis(s string) ([]float64, error) {
	out, err := parseList(s)
	if err != nil {
		return nil, err
	}
	for _, v := range out {
		if v < 0 {
			return nil, fmt.Errorf("values must be non-negative, got %v", v)
		}
	}
	return out, nil
}

func parseList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", part, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("value %q is not finite", strings.TrimSpace(part))
		}
		for _, prev := range out {
			if prev == v {
				return nil, fmt.Errorf("duplicate value %v", v)
			}
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
