package queueing

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// analyticBits formats the exact bits of every analytic value over a small
// grid: the batched LossGrids(ks, AllCurves) curves and, for each K, the
// per-K ControlledLoss, FCFSLoss and LCFSLoss.  The two sets may differ in
// the last bits (a batched series tabulates β up to the group's largest K,
// so its FFT rounds differently); both are pinned as they are.
func analyticBits() (string, error) {
	hex := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	ctrl := func(r Result) string {
		return fmt.Sprintf("loss=%s idle=%s z=%s terms=%d", hex(r.Loss), hex(r.ServerIdle), hex(r.Z), r.Terms)
	}
	var b strings.Builder
	for _, rhoPrime := range []float64{0.25, 0.75, 1.2} {
		for _, m := range []float64{10, 25} {
			for _, tau := range []float64{1, 0.5} {
				model := ProtocolModel{Tau: tau, M: m, RhoPrime: rhoPrime}
				var ks []float64
				for _, km := range []float64{0.05, 0.5, 1, 2, 8} {
					ks = append(ks, km*m*tau)
				}
				grids, err := model.LossGrids(ks, AllCurves)
				if err != nil {
					return "", fmt.Errorf("ρ′=%v M=%v τ=%v: LossGrids: %w", rhoPrime, m, tau, err)
				}
				for i, k := range ks {
					fmt.Fprintf(&b, "rho'=%v M=%v tau=%v K=%v\n", rhoPrime, m, tau, k)
					fmt.Fprintf(&b, "  grid controlled %s fcfs=%s lcfs=%s\n",
						ctrl(grids.Controlled[i]), hex(grids.FCFS[i]), hex(grids.LCFS[i]))
					c, err := model.ControlledLoss(k)
					if err != nil {
						return "", fmt.Errorf("ρ′=%v M=%v τ=%v K=%v: ControlledLoss: %w", rhoPrime, m, tau, k, err)
					}
					fcfs, lcfs := "err", "err"
					if v, err := model.FCFSLoss(k); err == nil {
						fcfs = hex(v)
					}
					if v, err := model.LCFSLoss(k); err == nil {
						lcfs = hex(v)
					}
					fmt.Fprintf(&b, "  perK controlled %s fcfs=%s lcfs=%s\n", ctrl(c), fcfs, lcfs)
				}
			}
		}
	}
	return b.String(), nil
}

// Every analytic value, batched and per-K, is pinned to the bit.  A change
// to the quadrature or the series must show here as a declared change to
// testdata/analytic_bits.golden, whose new content the failure prints.
func TestAnalyticBitsGolden(t *testing.T) {
	got, err := analyticBits()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "analytic_bits.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d lines, want %d", len(gl), len(wl))
	}
	t.Logf("new golden:\n%s", got)
}
