package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildCmd compiles the command so the tests run the real executable
// (main calls os.Exit, which cannot be observed in-process).
func buildCmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "windowloss")
	if out, err := exec.Command("go", "build", "-o", bin, "windowctl/cmd/windowloss").CombinedOutput(); err != nil {
		t.Fatalf("building windowloss: %v\n%s", err, out)
	}
	return bin
}

// run executes bin with args and returns its combined output and exit code.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running windowloss %v: %v", args, err)
	}
	return string(out), exit
}

// figure7KMs is Figure 7's K/M axis (sim.DefaultKOverM).
const figure7KMs = "0.5,1,1.5,2,3,4,6,8"

// The printed losses of every mode are pinned byte for byte: a single
// point per discipline, the grid mode per discipline and for "all" over
// Figure 7's K/M axis, and grids at ρ′ = 0.965, where the uncontrolled
// baselines are unstable and print "-".  Each golden file is the
// command's combined output; regenerate one with
//
//	go run ./cmd/windowloss ARGS > cmd/windowloss/testdata/NAME.golden 2>&1
func TestGolden(t *testing.T) {
	bin := buildCmd(t)
	cases := []struct {
		name     string
		args     []string
		wantExit int
	}{
		{"point_controlled", []string{"-rho", "0.75", "-m", "25", "-km", "2", "-discipline", "controlled"}, 0},
		{"point_fcfs", []string{"-rho", "0.75", "-m", "25", "-km", "2", "-discipline", "fcfs"}, 0},
		{"point_lcfs", []string{"-rho", "0.75", "-m", "25", "-km", "2", "-discipline", "lcfs"}, 0},
		{"grid_controlled", []string{"-rho", "0.75", "-m", "25", "-kms", figure7KMs, "-discipline", "controlled"}, 0},
		{"grid_fcfs", []string{"-rho", "0.75", "-m", "25", "-kms", figure7KMs, "-discipline", "fcfs"}, 0},
		{"grid_lcfs", []string{"-rho", "0.75", "-m", "25", "-kms", figure7KMs, "-discipline", "lcfs"}, 0},
		{"grid_all", []string{"-rho", "0.75", "-m", "25", "-kms", figure7KMs, "-discipline", "all"}, 0},
		{"unstable_fcfs", []string{"-rho", "0.965", "-m", "25", "-kms", figure7KMs, "-discipline", "fcfs"}, 0},
		{"unstable_all", []string{"-rho", "0.965", "-m", "25", "-kms", figure7KMs, "-discipline", "all"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, exit := run(t, bin, tc.args...)
			if exit != tc.wantExit {
				t.Errorf("exit %d, want %d\noutput:\n%s", exit, tc.wantExit, got)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("windowloss %v:\ngot:\n%s\nwant:\n%s", tc.args, got, want)
			}
		})
	}
}

// A constraint whose quadrature grid cannot be built — NaN, infinite, or
// so large the grid would pass its bound — is an error naming K and the
// grid size, in grid mode and in single-point mode alike: exit 1, never a
// panic.
func TestUnbuildableConstraint(t *testing.T) {
	bin := buildCmd(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-kms", "inf", "-discipline", "all"},
			"windowloss: queueing: constraint K=+Inf needs a quadrature grid of +Inf points (the bound is 16777216)\n"},
		{[]string{"-k", "inf", "-discipline", "fcfs"},
			"windowloss: queueing: constraint K=+Inf needs a quadrature grid of +Inf points (the bound is 16777216)\n"},
		{[]string{"-kms", "1e300", "-discipline", "controlled"},
			"windowloss: queueing: constraint K=2.5e+301 needs a quadrature grid of 4.931e+302 points (the bound is 16777216)\n"},
		{[]string{"-kms", "nan"},
			"windowloss: queueing: constraint K=NaN needs a quadrature grid of NaN points (the bound is 16777216)\n"},
	}
	for _, tc := range cases {
		args := append([]string{"-rho", "0.5", "-m", "25"}, tc.args...)
		got, exit := run(t, bin, args...)
		if exit != 1 {
			t.Errorf("windowloss %v: exit %d, want 1\noutput:\n%s", args, exit, got)
		}
		if got != tc.want {
			t.Errorf("windowloss %v:\ngot  %q\nwant %q", args, got, tc.want)
		}
	}
}
