package sweep

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"windowctl/internal/core"
	"windowctl/internal/metrics"
)

// testSpace is a small but fully featured grid: three axes wide, two
// disciplines, one nonzero error rate, cheap enough for every test.
func testSpace() Space {
	return Space{
		Loads:       []float64{0.25, 0.5},
		Ms:          []float64{25},
		KOverM:      []float64{1, 2},
		Disciplines: []core.Discipline{core.Controlled, core.FCFS},
		ErrorRates:  []float64{0, 0.05},
		Messages:    2000,
		Seed:        1983,
	}
}

func mustRun(t *testing.T, s Space, opt Options) []Outcome {
	t.Helper()
	outs, err := Run(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestSpaceValidation(t *testing.T) {
	base := testSpace()
	cases := []struct {
		name   string
		mutate func(*Space)
	}{
		{"zero seed", func(s *Space) { s.Seed = 0 }},
		{"empty loads", func(s *Space) { s.Loads = nil }},
		{"duplicate load", func(s *Space) { s.Loads = []float64{0.5, 0.25, 0.5} }},
		{"NaN load", func(s *Space) { s.Loads = []float64{0.5, math.NaN()} }},
		{"Inf km", func(s *Space) { s.KOverM = []float64{1, math.Inf(1)} }},
		{"negative km", func(s *Space) { s.KOverM = []float64{1, -2} }},
		{"zero m", func(s *Space) { s.Ms = []float64{0} }},
		{"error rate above 1", func(s *Space) { s.ErrorRates = []float64{0, 1.5} }},
		{"duplicate error rate", func(s *Space) { s.ErrorRates = []float64{0.05, 0.05} }},
		{"negative replications", func(s *Space) { s.Replications = -1 }},
		{"duplicate discipline", func(s *Space) {
			s.Disciplines = []core.Discipline{core.FCFS, core.FCFS}
		}},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		if _, err := s.Normalize(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := base.Normalize(); err != nil {
		t.Fatalf("base space rejected: %v", err)
	}
}

func TestEnumerateShapeAndOrder(t *testing.T) {
	s := testSpace()
	pts, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != s.Size() || len(pts) != 2*1*2*2*2 {
		t.Fatalf("got %d points, want %d", len(pts), s.Size())
	}
	// Disciplines innermost, then error rates, then k/m, then loads.
	if pts[0].Discipline != "controlled" || pts[1].Discipline != "fcfs" {
		t.Errorf("discipline order: %s, %s", pts[0].Discipline, pts[1].Discipline)
	}
	if pts[0].ErrorRate != 0 || pts[2].ErrorRate != 0.05 {
		t.Errorf("error-rate order: %v, %v", pts[0].ErrorRate, pts[2].ErrorRate)
	}
	if pts[0].KOverM != 1 || pts[4].KOverM != 2 {
		t.Errorf("k/m order: %v, %v", pts[0].KOverM, pts[4].KOverM)
	}
	if pts[0].RhoPrime != 0.25 || pts[8].RhoPrime != 0.5 {
		t.Errorf("load order: %v, %v", pts[0].RhoPrime, pts[8].RhoPrime)
	}
	for _, p := range pts {
		if p.Seed == 0 {
			t.Errorf("point %+v derived seed 0", p)
		}
		if p.Rates.Zero() != (p.FaultSeed == 0) {
			t.Errorf("point %+v: fault seed %d inconsistent with rates %+v", p, p.FaultSeed, p.Rates)
		}
	}
}

// TestCommonRandomNumbersAcrossErrorRates pins the degradation-style
// CRN contract: all error rates of one operating point share one
// simulation seed (and differ only in the injected rates), while
// different disciplines and constraints get independent seeds.
func TestCommonRandomNumbersAcrossErrorRates(t *testing.T) {
	pts, err := testSpace().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string][]Point{}
	for _, p := range pts {
		id := p.Discipline + "|" + axisFmt(p.RhoPrime) + "|" + axisFmt(p.KOverM)
		byID[id] = append(byID[id], p)
	}
	seeds := map[uint64]bool{}
	for id, group := range byID {
		if len(group) != 2 {
			t.Fatalf("%s: %d ε-cells, want 2", id, len(group))
		}
		if group[0].Seed != group[1].Seed {
			t.Errorf("%s: ε-cells have different sim seeds %d, %d", id, group[0].Seed, group[1].Seed)
		}
		if group[0].Key() == group[1].Key() {
			t.Errorf("%s: ε-cells share a key", id)
		}
		if seeds[group[0].Seed] {
			t.Errorf("%s: sim seed %d collides with another operating point", id, group[0].Seed)
		}
		seeds[group[0].Seed] = true
	}
}

// TestSupersetKeysMatch pins the content-addressing property the cache
// depends on: a point's key is a function of its parameter values, not
// its grid position, so a superset grid reuses every key of a subset.
func TestSupersetKeysMatch(t *testing.T) {
	small := testSpace()
	big := small
	big.Loads = []float64{0.1, 0.25, 0.5, 0.75}
	big.KOverM = []float64{0.5, 1, 2, 4}

	smallPts, err := small.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	bigPts, err := big.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	bigKeys := map[string]bool{}
	for _, p := range bigPts {
		bigKeys[p.Key()] = true
	}
	for _, p := range smallPts {
		if !bigKeys[p.Key()] {
			t.Errorf("subset point %+v keys outside the superset", p)
		}
	}
}

// TestKeyPinned pins one canonical content address.  If this fails, the
// key derivation changed: that is an intentional cache-invalidation
// event (bump EngineVersion when the engines changed; update the pin
// either way).
func TestKeyPinned(t *testing.T) {
	p := Point{
		Tau: 1, RhoPrime: 0.5, M: 25, KOverM: 2,
		Discipline: "controlled", Seed: 1, Messages: 1000, Replications: 1,
	}
	const want = "54fedf71f12d756af604c308c0f8990aece89bceaa510f80d1107ebab8f70dc8"
	if got := p.Key(); got != want {
		t.Fatalf("pinned key changed:\n got %s\nwant %s", got, want)
	}
}

// TestRunDeterministicAcrossWorkersAndCache is the tentpole acceptance
// test: outcomes must be bit-identical — every Result field, and the CSV
// emitted from them — across worker counts and across cold, warm and
// partially warm cache runs.
func TestRunDeterministicAcrossWorkersAndCache(t *testing.T) {
	s := testSpace()
	runs := map[string][]Outcome{}
	for _, w := range []int{1, 2, 3, 7} {
		runs[fmt.Sprintf("workers=%d", w)] = mustRun(t, s, Options{Workers: w})
	}

	dir := t.TempDir()
	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs["cold-cache"] = mustRun(t, s, Options{Workers: 3, Cache: cold})
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmOuts := mustRun(t, s, Options{Workers: 2, Cache: warm})
	runs["warm-cache"] = warmOuts
	if st := warm.Stats(); st.Misses != 0 || st.Hits != int64(len(warmOuts)) {
		t.Fatalf("warm run not fully cached: %+v", st)
	}
	for i := range warmOuts {
		if !warmOuts[i].Cached {
			t.Fatalf("warm outcome %d not marked cached", i)
		}
	}

	// A partially warm cache: a grid with a subset of the loads and the
	// same K axis answers some groups' points, the rest are computed.
	sub := s
	sub.Loads = s.Loads[1:]
	partial, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, sub, Options{Workers: 2, Cache: partial})
	partialOuts := mustRun(t, s, Options{Workers: 3, Cache: partial})
	runs["partial-cache"] = partialOuts
	for _, o := range partialOuts {
		if want := o.Point.RhoPrime != s.Loads[0]; o.Cached != want {
			t.Fatalf("partial cache: point ρ′=%v K/M=%v %s cached=%v, want %v",
				o.Point.RhoPrime, o.Point.KOverM, o.Point.Discipline, o.Cached, want)
		}
	}

	emit := func(outs []Outcome) string {
		var long, wide, heat bytes.Buffer
		if err := WriteCSV(&long, outs); err != nil {
			t.Fatal(err)
		}
		if err := WriteWideCSV(&wide, s, outs); err != nil {
			t.Fatal(err)
		}
		if err := WriteHeatmaps(&heat, s, outs); err != nil {
			t.Fatal(err)
		}
		return long.String() + "\x00" + wide.String() + "\x00" + heat.String()
	}
	serial := runs["workers=1"]
	ref := emit(serial)
	for name, outs := range runs {
		for i := range outs {
			// %+v prints each float in its shortest exact form, so
			// equal strings mean equal bits.
			got, want := fmt.Sprintf("%+v", outs[i].Result), fmt.Sprintf("%+v", serial[i].Result)
			if got != want {
				p := outs[i].Point
				t.Errorf("%s: point ρ′=%v M=%v K/M=%v ε=%v %s:\n got %s\nwant %s (serial)",
					name, p.RhoPrime, p.M, p.KOverM, p.ErrorRate, p.Discipline, got, want)
			}
		}
		if got := emit(outs); got != ref {
			t.Errorf("%s emission differs from serial", name)
		}
	}
}

func TestRunMaxPointsBudget(t *testing.T) {
	s := testSpace()
	if _, err := Run(s, Options{MaxPoints: s.Size() - 1}); err == nil {
		t.Fatal("over-budget grid accepted")
	}
	if _, err := Run(s, Options{MaxPoints: s.Size(), Workers: 4}); err != nil {
		t.Fatalf("at-budget grid rejected: %v", err)
	}
}

func TestRunAnalyticOnly(t *testing.T) {
	s := testSpace()
	s.Messages = 0
	s.ErrorRates = nil
	outs := mustRun(t, s, Options{})
	for _, o := range outs {
		if o.Result.SimOK {
			t.Fatalf("analytic-only point simulated: %+v", o)
		}
		if o.Point.Discipline == "controlled" && !o.Result.AnalyticOK {
			t.Fatalf("controlled analytic failed: %+v", o.Result)
		}
	}
}

func TestRunMetricsAggregation(t *testing.T) {
	s := testSpace()
	s.ErrorRates = nil // perfect feedback keeps the fault counters zero
	outs := mustRun(t, s, Options{Workers: 4, Metrics: true})
	sm := &metrics.SlotMetrics{}
	for _, o := range outs {
		sm.Merge(o.Metrics)
	}
	if sm.Arrivals == 0 || sm.Transmissions == 0 {
		t.Fatalf("aggregate metrics empty: %+v", sm)
	}
	// The aggregate must equal the sum over per-point offered counts at
	// zero warmup... warmup is nonzero here, so just check plausibility:
	// arrivals cover at least the measured offered messages.
	var offered int64
	for _, o := range outs {
		offered += o.Result.Offered
	}
	if sm.Arrivals < offered {
		t.Fatalf("aggregate arrivals %d < measured offered %d", sm.Arrivals, offered)
	}

	// Replicated runs cannot share a collector.
	s.Replications = 3
	if _, err := Run(s, Options{Metrics: true}); err == nil {
		t.Fatal("metrics+replications accepted")
	}
}

func TestRunReplicatedPoints(t *testing.T) {
	s := testSpace()
	s.Disciplines = []core.Discipline{core.Controlled}
	s.ErrorRates = nil
	s.Replications = 3
	s.Messages = 1000
	a := mustRun(t, s, Options{Workers: 1})
	b := mustRun(t, s, Options{Workers: 4})
	for i := range a {
		ra, rb := a[i].Result, b[i].Result
		if ra != rb {
			t.Fatalf("replicated point %d differs across workers: %+v vs %+v", i, ra, rb)
		}
		if !ra.SimOK || ra.SimLo > ra.SimLoss || ra.SimHi < ra.SimLoss {
			t.Fatalf("replicated point %d CI inconsistent: %+v", i, ra)
		}
	}
}

// TestFailedSimulationIsCached pins the failure-caching property: a
// hopeless cell (unstable baseline) is computed once, cached with its
// error, and answered from the cache on the next run.
func TestFailedSimulationIsCached(t *testing.T) {
	s := Space{
		// Eight times channel capacity with a constraint so loose FCFS
		// never discards: the backlog outgrows the engine's 1<<20 abort
		// threshold within the first ~1.2e6 arrivals.
		Loads:       []float64{8.0},
		Ms:          []float64{25},
		KOverM:      []float64{1e6},
		Disciplines: []core.Discipline{core.FCFS},
		Messages:    2e6,
		Seed:        7,
	}
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	outs := mustRun(t, s, Options{Cache: cache})
	if outs[0].Result.SimOK || outs[0].Result.SimErr == "" {
		t.Fatalf("unstable baseline did not record a sim error: %+v", outs[0].Result)
	}
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	outs2 := mustRun(t, s, Options{Cache: warm})
	if !outs2[0].Cached || outs2[0].Result.SimErr != outs[0].Result.SimErr {
		t.Fatalf("failure not served from cache: %+v", outs2[0])
	}
}

func TestWideCSVShape(t *testing.T) {
	s := testSpace()
	outs := mustRun(t, s, Options{Workers: 4})
	var b bytes.Buffer
	if err := WriteWideCSV(&b, s, outs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	wantRows := 1 + len(s.Loads)*len(s.Ms)*len(s.KOverM)*2 // + header; 2 = ε cells
	if len(lines) != wantRows {
		t.Fatalf("wide CSV has %d lines, want %d", len(lines), wantRows)
	}
	wantHeader := "rho,m,k_over_m,k,error_rate,controlled,fcfs,sim_controlled,sim_fcfs"
	if lines[0] != wantHeader {
		t.Fatalf("header %q, want %q", lines[0], wantHeader)
	}
	wantCols := strings.Count(wantHeader, ",") + 1
	for i, l := range lines {
		if strings.Count(l, ",")+1 != wantCols {
			t.Fatalf("line %d has wrong arity: %q", i, l)
		}
	}

	// Mismatched shapes must be rejected, not mis-tiled.
	if err := WriteWideCSV(&b, s, outs[1:]); err == nil {
		t.Fatal("truncated outcomes accepted")
	}
}
