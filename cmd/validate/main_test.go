package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The validation battery at its defaults is pinned byte for byte: every
// model column, the seeded simulation and the verdicts.  Regenerate with
//
//	go run ./cmd/validate > cmd/validate/testdata/default.golden 2>&1
func TestGoldenDefaults(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "validate")
	if out, err := exec.Command("go", "build", "-o", bin, "windowctl/cmd/validate").CombinedOutput(); err != nil {
		t.Fatalf("building validate: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "default.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(want) {
		t.Errorf("validate output changed:\ngot:\n%s\nwant:\n%s", out, want)
	}
}
