// Command windowbench is the repository's end-to-end and per-layer
// benchmark: it times windowd the way a client sees it (bytes over one
// loopback TCP connection in, admission decisions polled from /metrics
// out) and the batch engines through their public entry points, checks
// every run's outputs, and prints one JSON result line per run.
//
// Each workload runs in its own child process under a hard wall
// timeout.  With -trace 1 the child instead rebuilds each workload's
// data path in-process from public functions, records spans around the
// calls into each layer, and reports the per-layer metrics; see
// README.md for every metric, its layer and the end-to-end metric it
// should move.
//
// Usage:
//
//	windowbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	            -windowd PATH [-workdir DIR] [-spans DIR] [-out FILE] [-quick]
//	windowbench -check -baseline A.jsonl -current B.jsonl [-bench BENCHMARK.json]
//
// run.sh builds windowd and this command and runs it from the
// repository root.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// e2eDefs are the end-to-end metrics every workload reports with -trace 0.
var e2eDefs = []metricDef{
	{"decided_per_s", "msgs/s", "higher"},
	{"latency_ms", "ms", "lower"},
	{"loss", "ratio", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerDefs are the per-layer metrics every workload reports with
// -trace 1.  A layer a workload does not exercise reports 0.
var layerDefs = []metricDef{
	{"engine.ns_per_msg", "ns", "lower"},
	{"engine.share", "ratio", "lower"},
	{"engine.idle_slot_frac", "ratio", "lower"},
	{"engine.collision_slot_frac", "ratio", "lower"},
	{"engine.splits_per_decision", "count", "lower"},
	{"engine.virtual_per_wall", "ratio", "higher"},
	{"pump.steps_per_decision", "count", "lower"},
	{"pump.share", "ratio", "lower"},
	{"pump.engine_wait_frac", "ratio", "lower"},
	{"ingest.share", "ratio", "lower"},
	{"ingest.ledger_wait_frac", "ratio", "lower"},
	{"ingest.owed_mean", "count", "lower"},
	{"wire.share", "ratio", "lower"},
	{"wire.frames_per_s", "1/s", "lower"},
	{"wire.msgs_per_frame", "count", "higher"},
	{"stepper.share", "ratio", "lower"},
	{"metrics.share", "ratio", "lower"},
	{"metrics.record_calls_per_decision", "count", "lower"},
	{"queueing.share", "ratio", "lower"},
	{"sweep.share", "ratio", "lower"},
	{"sweep.points_per_s", "1/s", "higher"},
	{"sweep.shard_imbalance", "ratio", "lower"},
	{"multi.bank_setup_frac", "ratio", "lower"},
	{"process.cpu_cores", "cores", "lower"},
	{"process.cpu_us_per_decision", "us", "lower"},
	{"trace.ns_per_decision", "ns", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.layer_sum_frac", "ratio", "higher"},
}

// workloads lists every workload in run order.
var workloads = []string{"svc-saturate", "svc-overload", "svc-paced", "sim-grid", "sim-multi"}

// metricValue and result are the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// check is one correctness check of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// report is what a workload run measured.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	checks    []check
	notes     []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result turns the report into the result line for the given metric set.
func (r *report) result(defs []metricDef) (result, error) {
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, c := range r.checks {
		res.Correct = res.Correct && c.ok
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	return res, nil
}

// options are the command-line settings a child inherits.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	windowd  string
	workdir  string
	spans    string
	quick    bool
}

func (o options) childArgs(workload string) []string {
	args := []string{
		"-child", "-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-windowd", o.windowd, "-workdir", o.workdir, "-spans", o.spans,
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	return args
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "windowbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("windowbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty = all: "+strings.Join(workloads, ", ")+")")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	traceN := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end run")
	fs.StringVar(&o.windowd, "windowd", "", "path to a built cmd/windowd binary (needed by the svc-* workloads)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for sweep caches")
	fs.StringVar(&o.spans, "spans", "", "directory to write traced runs' spans to (empty = do not write)")
	out := fs.String("out", "", "append one JSON line per workload run to this file")
	fs.BoolVar(&o.quick, "quick", false, "2 s windows and tiny grids: a smoke run of the whole harness")
	child := fs.Bool("child", false, "run one workload in this process (used by the parent)")
	checkMode := fs.Bool("check", false, "compare two sets of recorded runs (-baseline, -current)")
	baseline := fs.String("baseline", "", "recorded runs of the parent (-check)")
	current := fs.String("current", "", "recorded runs of the change (-check)")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition with the regression bounds (-check)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *checkMode {
		return runCheck(*bench, *baseline, *current, stdout)
	}
	if *traceN != 0 && *traceN != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceN)
	}
	o.trace = *traceN == 1
	if !(o.seconds >= 1 && o.seconds <= 60) {
		return fmt.Errorf("-seconds must be in [1, 60], got %v", o.seconds)
	}
	names := workloads
	if o.workload != "" {
		if !contains(workloads, o.workload) {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloads, ", "))
		}
		names = []string{o.workload}
	}
	for _, n := range names {
		if strings.HasPrefix(n, "svc-") && o.windowd == "" {
			return fmt.Errorf("workload %s needs -windowd", n)
		}
	}
	if *child {
		return runChild(o, stdout, stderr)
	}

	results := map[string]result{}
	for _, n := range names {
		res, err := runInChild(o, n, stderr)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		results[n] = res
		if *out != "" {
			if err := appendRun(*out, n, o, res); err != nil {
				return err
			}
		}
	}
	if o.workload != "" {
		b, err := json.Marshal(results[o.workload])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
		return nil
	}
	printTable(stdout, names, results, o.trace)
	for _, n := range names {
		if r := results[n]; !r.Correct || r.Failed != 0 {
			return fmt.Errorf("%s: correct=%v failed=%d", n, r.Correct, r.Failed)
		}
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// runChild runs one workload in this process and prints its result as
// the last line of stdout, with the human-readable detail on stderr.
func runChild(o options, stdout, stderr io.Writer) error {
	p := newPlan(o)
	var (
		rep *report
		err error
	)
	switch {
	case strings.HasPrefix(o.workload, "svc-"):
		rep, err = runSvc(o, p)
	case o.workload == "sim-grid":
		rep, err = runGrid(o, p)
	case o.workload == "sim-multi":
		rep, err = runMulti(o, p)
	}
	if err != nil {
		return err
	}
	defs := e2eDefs
	if o.trace {
		defs = layerDefs
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stderr, "windowbench: %s: %s\n", o.workload, n)
	}
	for _, c := range rep.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Fprintf(stderr, "windowbench: %s: check %-28s %-6s %s\n", o.workload, c.name, verdict, c.detail)
	}
	res, err := rep.result(defs)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return nil
}

// childTimeout is the hard wall limit on one child: long enough for its
// set-up, warm-up, measured window and drain, short of the 180 s a run
// may take.
func childTimeout(o options) time.Duration {
	d := time.Duration(3*o.seconds)*time.Second + 90*time.Second
	if d > 170*time.Second {
		d = 170 * time.Second
	}
	return d
}

// runInChild runs one workload in a child process of its own process
// group and parses the child's result line.  On timeout the whole group
// (the child and any windowd it started) is killed and the run fails.
func runInChild(o options, workload string, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(o))
	defer cancel()
	cmd := exec.Command(self, o.childArgs(workload)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return result{}, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-ctx.Done():
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-done
		return result{}, fmt.Errorf("killed after the %v wall limit", childTimeout(o))
	}
	// A clean child exit can still leave a windowd behind only through a
	// bug; the group kill makes sure nothing outlives the run.
	syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	if err != nil {
		return result{}, fmt.Errorf("child: %w", err)
	}
	return parseResult(out.Bytes())
}

// parseResult decodes the last non-empty line of a child's stdout.
func parseResult(b []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("child result: %w", err)
	}
	return res, nil
}

// recorded is one line of an -out file.
type recorded struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRun(path, workload string, o options, res result) error {
	rec := recorded{Workload: workload, Seed: o.seed, Result: res}
	if o.trace {
		rec.Trace = 1
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRuns loads every line of an -out file.
func readRuns(path string) ([]recorded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []recorded
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r recorded
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// printTable prints every metric of every workload, one row per metric.
func printTable(w io.Writer, names []string, results map[string]result, traced bool) {
	defs := e2eDefs
	if traced {
		defs = layerDefs
	}
	fmt.Fprintf(w, "%-34s %-7s", "metric", "unit")
	for _, n := range names {
		fmt.Fprintf(w, " %14s", n)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %-7s", d.name, d.unit)
		for _, n := range names {
			fmt.Fprintf(w, " %14.6g", results[n].Metrics[d.name].Value)
		}
		fmt.Fprintln(w)
	}
	rows := []struct {
		label string
		f     func(result) string
	}{
		{"correct", func(r result) string { return strconv.FormatBool(r.Correct) }},
		{"attempted", func(r result) string { return strconv.FormatInt(r.Attempted, 10) }},
		{"failed_frac", func(r result) string { return strconv.FormatFloat(float64(r.Failed)/float64(r.Attempted), 'g', 4, 64) }},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-34s %-7s", row.label, "")
		for _, n := range names {
			fmt.Fprintf(w, " %14s", row.f(results[n]))
		}
		fmt.Fprintln(w)
	}
}
