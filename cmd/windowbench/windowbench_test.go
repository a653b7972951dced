package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command when the
// end-to-end test's parent re-executes itself as a workload child.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// fifo builds a system that sends perTick messages every tick seconds
// and decides each exactly delay(k) seconds after it was sent, polled
// every poll seconds.
func fifo(ticks, perTick int, tick, poll float64, delay func(k int64) float64) (*polledCurve, *polledCurve) {
	var sent polledCurve
	sent.add(0, 0)
	var out []float64 // decision instant of message k+1
	for i := 1; i <= ticks; i++ {
		t := float64(i) * tick
		for j := 0; j < perTick; j++ {
			k := int64(len(out) + 1)
			out = append(out, t+delay(k))
		}
		sent.add(t, int64(len(out)))
	}
	var decided polledCurve
	end := out[len(out)-1] + poll
	for t := 0.0; t <= end; t += poll {
		var n int64
		for _, d := range out {
			if d <= t {
				n++
			}
		}
		decided.add(t, n)
	}
	return &sent, &decided
}

func TestCurveDelaysRecoversFIFODelay(t *testing.T) {
	// 100 messages every millisecond, each decided 7 ms later, polled at
	// 20 Hz: a 50 ms poll interval must not blur a 7 ms delay.
	sent, decided := fifo(2000, 100, 1e-3, 0.05, func(int64) float64 { return 7e-3 })
	_, d := curveDelays(sent, decided, 0, 200000, 5000)
	if len(d) < 4000 {
		t.Fatalf("got %d samples, want about 5000", len(d))
	}
	if p50 := median(d); math.Abs(p50-7e-3) > 0.5e-3 {
		t.Errorf("p50 delay %.3f ms, want 7 ms", 1e3*p50)
	}
}

func TestCurveDelaysTracksAChangingDelay(t *testing.T) {
	// The delay steps from 3 ms to 12 ms halfway; each half's median must
	// find its own delay, so the estimator is not averaging the run.
	sent, decided := fifo(2000, 50, 1e-3, 0.05, func(k int64) float64 {
		if k <= 50000 {
			return 3e-3
		}
		return 12e-3
	})
	_, first := curveDelays(sent, decided, 5000, 45000, 2000)
	_, second := curveDelays(sent, decided, 55000, 95000, 2000)
	if p := median(first); math.Abs(p-3e-3) > 0.5e-3 {
		t.Errorf("first half p50 %.3f ms, want 3 ms", 1e3*p)
	}
	if p := median(second); math.Abs(p-12e-3) > 0.5e-3 {
		t.Errorf("second half p50 %.3f ms, want 12 ms", 1e3*p)
	}
}

func TestCurveDelaysStopsAtUndecidedMessages(t *testing.T) {
	sent, decided := fifo(100, 10, 1e-3, 0.05, func(int64) float64 { return 1e-3 })
	decided.t, decided.n = decided.t[:1], decided.n[:1] // nothing decided yet
	if _, d := curveDelays(sent, decided, 0, 1000, 100); len(d) != 0 {
		t.Errorf("got %d delays for messages never decided", len(d))
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}, {1e7, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestAdmitCapsOutstanding(t *testing.T) {
	const limit = 1000
	cases := []struct{ sent, decided, n, want int64 }{
		{0, 0, 10, 10},         // far below the cap: everything due goes out
		{990, 0, 50, 10},       // clipped to the room left
		{1000, 0, 5, 0},        // at the cap: paused
		{1500, 200, 7, 0},      // above the cap (decisions lag): paused
		{1500, 1000, 600, 500}, // decisions freed room
	}
	for _, c := range cases {
		if got := admit(c.sent, c.decided, c.n, limit); got != c.want {
			t.Errorf("admit(sent=%d, decided=%d, n=%d) = %d, want %d", c.sent, c.decided, c.n, got, c.want)
		}
	}
	// A generator offering far more than a slow system decides never
	// lets sent − decided exceed the cap.
	var sent, decided int64
	for tick := 0; tick < 10000; tick++ {
		sent += admit(sent, decided, 400, limit)
		if sent-decided > limit {
			t.Fatalf("tick %d: outstanding %d > cap %d", tick, sent-decided, limit)
		}
		decided += min(37, sent-decided)
	}
	if decided < 37*9900 {
		t.Errorf("decided %d: the cap starved the system", decided)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		cur    []float64
		higher bool
		want   string
	}{
		{"same runs", base, true, verdictUnchanged},
		{"within the bound", scale(base, 0.97), true, verdictUnchanged},
		{"throughput fell past the bound", scale(base, 0.85), true, verdictWorse},
		{"latency rose past the bound", scale(base, 1.15), false, verdictWorse},
		{"throughput rose, every pair won", scale(base, 1.05), true, verdictBetter},
		{"latency fell, every pair won", scale(base, 0.95), false, verdictBetter},
		{"spread wider than the bound", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, true, verdictUnresolved},
		{"wide spread but every run worse", []float64{10, 30, 15, 25, 20, 12, 28, 18, 22, 20}, true, verdictWorse},
	} {
		if got := verdict(base, c.cur, 0.1, c.higher); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRunCheckFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		var b bytes.Buffer
		for i := 0; i < 5; i++ {
			rec := recorded{Workload: "sim-grid", Seed: uint64(i), Result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"decided_per_s": {rate * (1 + 0.001*float64(i)), "msgs/s"}},
			}}
			line, _ := json.Marshal(rec)
			b.Write(append(line, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow := write("base", 1e6), write("same", 1e6), write("slow", 0.7e6)
	var out bytes.Buffer
	if err := runCheck("../../BENCHMARK.json", base, same, &out); err != nil {
		t.Errorf("same runs: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := runCheck("../../BENCHMARK.json", base, slow, &out); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("30%% slower runs passed the check:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the committed benchmark
// definition and the metrics the command prints in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", def.EndToEnd, e2eDefs)
	same("per_layer", def.PerLayer, layerDefs)
}

// TestQuickRunsEveryWorkload drives the whole harness end to end with
// -quick: windowd built from source, every workload in its own child,
// every correctness check.
func TestQuickRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds windowd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "windowd")
	build := exec.Command("go", "build", "-o", bin, "windowctl/cmd/windowd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building windowd: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	err := run([]string{"-quick", "-seconds", "2", "-windowd", bin, "-workdir", dir,
		"-out", filepath.Join(dir, "runs.jsonl")}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	runs, err := readRuns(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(workloads) {
		t.Fatalf("recorded %d runs, want %d", len(runs), len(workloads))
	}
	for _, r := range runs {
		if !r.Result.Correct || r.Result.Failed != 0 || len(r.Result.Metrics) != len(e2eDefs) {
			t.Errorf("%s: %+v", r.Workload, r.Result)
		}
		for name, v := range r.Result.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", r.Workload, name, v.Value)
			}
		}
	}
}

// TestQuickTracedRuns drives the traced harness: spans written, every
// per-layer metric reported, and the fidelity check against the binary
// passed on the closed-loop workload where it is exact.
func TestQuickTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds windowd and runs traced workloads")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "windowd")
	if out, err := exec.Command("go", "build", "-o", bin, "windowctl/cmd/windowd").CombinedOutput(); err != nil {
		t.Fatalf("building windowd: %v\n%s", err, out)
	}
	for _, w := range []string{"svc-saturate", "sim-grid", "sim-multi"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-quick", "-trace", "1", "-workload", w, "-seconds", "2",
			"-windowd", bin, "-workdir", dir, "-spans", dir}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w, err, stderr.String())
		}
		res, err := parseResult(stdout.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(layerDefs) {
			t.Errorf("%s: correct=%v with %d metrics\n%s", w, res.Correct, len(res.Metrics), stderr.String())
		}
		if _, err := os.Stat(filepath.Join(dir, "spans-"+w+"-1.json")); err != nil {
			t.Errorf("%s: no spans written: %v", w, err)
		}
	}
}
