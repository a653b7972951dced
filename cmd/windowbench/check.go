package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchDef is the part of BENCHMARK.json the comparison reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one metric on one workload.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// iqr returns the first and third quartiles.
func iqr(xs []float64) (q1, q3 float64) { return quantile(xs, 0.25), quantile(xs, 0.75) }

// verdict compares runs of the change against runs of the parent under
// the metric's regression bound (a share of the parent's median):
//
//   - worse: the change's median is worse by more than the bound;
//   - better: its median is better by more than the parent's own
//     interquartile spread, and it wins at least nine tenths of the runs
//     paired in recorded order;
//   - unresolved: either side's spread exceeds the bound, and neither
//     every change run beats every parent run nor the reverse;
//   - unchanged: otherwise.
func verdict(base, cur []float64, bound float64, higherBetter bool) string {
	mb, mc := median(base), median(cur)
	// gain > 0 means the change is better, as a share of the parent.
	gain := (mb - mc) / math.Abs(mb)
	if higherBetter {
		gain = -gain
	}
	better := func(c, b float64) bool { return (c > b) == higherBetter && c != b }
	b1, b3 := iqr(base)
	c1, c3 := iqr(cur)
	spread := math.Max(b3-b1, c3-c1) / math.Abs(mb)
	if spread > bound {
		all, none := true, true
		for _, c := range cur {
			for _, b := range base {
				all = all && better(c, b)
				none = none && better(b, c)
			}
		}
		switch {
		case all:
			return verdictBetter
		case none:
			return verdictWorse
		}
		return verdictUnresolved
	}
	if gain < -bound {
		return verdictWorse
	}
	n, wins := min(len(base), len(cur)), 0
	for i := 0; i < n; i++ {
		if better(cur[i], base[i]) {
			wins++
		}
	}
	if gain > (b3-b1)/math.Abs(mb) && n > 0 && float64(wins) >= 0.9*float64(n) {
		return verdictBetter
	}
	return verdictUnchanged
}

// runCheck compares two sets of recorded end-to-end runs metric by
// metric and workload by workload.  It fails when any pairing regressed.
func runCheck(benchPath, basePath, curPath string, w io.Writer) error {
	if basePath == "" || curPath == "" {
		return fmt.Errorf("-check needs -baseline and -current")
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	cur, err := readRuns(curPath)
	if err != nil {
		return err
	}
	values := func(runs []recorded, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				out = append(out, v.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-13s %-15s %7s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "bound", "base median", "base [q1, q3]", "cur median", "cur [q1, q3]", "change", "verdict")
	regressions := 0
	for _, wl := range workloads {
		for _, m := range def.EndToEnd {
			b, c := values(base, wl, m.Name), values(cur, wl, m.Name)
			if len(b) == 0 && len(c) == 0 {
				continue
			}
			if len(b) == 0 || len(c) == 0 {
				return fmt.Errorf("%s %s: %d baseline and %d current runs", wl, m.Name, len(b), len(c))
			}
			v := verdict(b, c, m.Bound, m.Better == "higher")
			if v == verdictWorse {
				regressions++
			}
			b1, b3 := iqr(b)
			c1, c3 := iqr(c)
			fmt.Fprintf(w, "%-13s %-15s %7.3f %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %+7.2f%%  %s\n",
				wl, m.Name, m.Bound, median(b), b1, b3, median(c), c1, c3,
				100*(median(c)/median(b)-1), v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric/workload pairs regressed", regressions)
	}
	return nil
}
