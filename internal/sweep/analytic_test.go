package sweep

import (
	"math"
	"testing"

	"windowctl/internal/core"
	"windowctl/internal/queueing"
)

// analyticSpace is an analytic-only grid with loads on both sides of the
// protocol's capacity at both message lengths, so the baselines are
// stable in some groups and unstable in others, and with disciplines that
// have no model beside the three that do.
func analyticSpace() Space {
	return Space{
		Loads:  []float64{0.5, 0.9, 1.2},
		Ms:     []float64{25, 100},
		KOverM: []float64{0.5, 1, 3, 8},
		Disciplines: []core.Discipline{
			core.Controlled, core.FCFS, core.LCFS, core.Random, core.ACDC,
		},
		ErrorRates: []float64{0, 0.02},
		Seed:       1983,
	}
}

// perPoint is the analytic column as one model solve per point gives it.
func perPoint(t *testing.T, p Point) Result {
	t.Helper()
	disc, err := ParseDiscipline(p.Discipline)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	sys := core.System{Tau: p.Tau, M: p.M, RhoPrime: p.RhoPrime, K: p.K(), Discipline: disc}
	if a, err := sys.AnalyticLoss(); err == nil {
		res.AnalyticLoss, res.AnalyticOK = fin(a.Loss), true
	} else {
		res.AnalyticErr = err.Error()
	}
	return res
}

// The grouped analytic column must be the per-point one: the same
// AnalyticOK and AnalyticErr exactly, and AnalyticLoss within 1e-12.
func TestRunAnalyticMatchesPerPoint(t *testing.T) {
	s := analyticSpace()
	for _, m := range s.Ms {
		if c := queueing.Capacity(m); s.Loads[1] >= c || s.Loads[2] <= c {
			t.Fatalf("setup: loads %v do not straddle the capacity %.4f at M=%v", s.Loads, c, m)
		}
	}
	outs := mustRun(t, s, Options{Workers: 3})
	var ok, failed, differ int
	var worst float64
	for _, o := range outs {
		p, got := o.Point, o.Result
		want := perPoint(t, p)
		if got.AnalyticOK != want.AnalyticOK || got.AnalyticErr != want.AnalyticErr {
			t.Errorf("ρ′=%v M=%v K/M=%v ε=%v %s: grouped ok=%v err=%q, per-point ok=%v err=%q",
				p.RhoPrime, p.M, p.KOverM, p.ErrorRate, p.Discipline,
				got.AnalyticOK, got.AnalyticErr, want.AnalyticOK, want.AnalyticErr)
			continue
		}
		d := math.Abs(got.AnalyticLoss - want.AnalyticLoss)
		if d != 0 {
			differ++
			worst = math.Max(worst, d)
		}
		if !(d <= 1e-12) {
			t.Errorf("ρ′=%v M=%v K/M=%v ε=%v %s: grouped loss %.17g, per-point %.17g (%.3g apart)",
				p.RhoPrime, p.M, p.KOverM, p.ErrorRate, p.Discipline, got.AnalyticLoss, want.AnalyticLoss, d)
		}
		if got.AnalyticOK {
			ok++
		} else {
			failed++
		}
	}
	t.Logf("%d of %d solved points differ from per-point, by at most %.3g", differ, ok, worst)
	// 2 M × 4 K/M × 2 ε: controlled at every load, the baselines at the
	// two stable ones.
	if want := 16 * (3 + 2 + 2); ok != want || failed != len(outs)-want {
		t.Errorf("setup: %d points solved and %d without a model or steady state, want %d and %d",
			ok, failed, want, len(outs)-want)
	}
}

// A point's analytic value depends on its space's K axis only through
// the quadrature's rounding: inside two spaces with different K axes it
// agrees within 1e-12.
func TestRunAnalyticAcrossSpaces(t *testing.T) {
	a := analyticSpace()
	a.Disciplines = DefaultDisciplines
	a.ErrorRates = nil
	b := a
	b.KOverM = []float64{1, 3, 20}
	outsA := mustRun(t, a, Options{Workers: 2})
	outsB := mustRun(t, b, Options{Workers: 2})
	byKey := map[string]Result{}
	for _, o := range outsA {
		byKey[o.Key] = o.Result
	}
	shared := 0
	for _, o := range outsB {
		ra, ok := byKey[o.Key]
		if !ok {
			continue
		}
		shared++
		rb, p := o.Result, o.Point
		if ra.AnalyticOK != rb.AnalyticOK {
			t.Errorf("ρ′=%v M=%v K/M=%v %s: solved in one space and not the other (%q, %q)",
				p.RhoPrime, p.M, p.KOverM, p.Discipline, ra.AnalyticErr, rb.AnalyticErr)
			continue
		}
		if d := math.Abs(ra.AnalyticLoss - rb.AnalyticLoss); !(d <= 1e-12) {
			t.Errorf("ρ′=%v M=%v K/M=%v %s: loss %.17g with K/M axis %v, %.17g with %v (%.3g apart)",
				p.RhoPrime, p.M, p.KOverM, p.Discipline, ra.AnalyticLoss, a.KOverM, rb.AnalyticLoss, b.KOverM, d)
		}
	}
	if want := 3 * 2 * 2 * 3; shared != want {
		t.Fatalf("setup: the spaces share %d points, want %d", shared, want)
	}
}

// A K/M the axis check admits but whose quadrature grid cannot be built
// is an analytic error on the point, not a panic in a worker.
func TestRunAnalyticUnbuildableConstraint(t *testing.T) {
	s := Space{
		Loads:       []float64{0.5},
		Ms:          []float64{25},
		KOverM:      []float64{1, 1e300},
		Disciplines: []core.Discipline{core.Controlled, core.FCFS},
		Seed:        1983,
	}
	outs := mustRun(t, s, Options{Workers: 2})
	const want = "queueing: constraint K=2.5e+301 needs a quadrature grid of 4.931e+302 points (the bound is 16777216)"
	seen := 0
	for _, o := range outs {
		if o.Point.KOverM != 1e300 {
			continue
		}
		seen++
		if o.Result.AnalyticOK || o.Result.AnalyticErr != want {
			t.Errorf("%s at K/M=1e300: ok=%v err=%q, want the error %q",
				o.Point.Discipline, o.Result.AnalyticOK, o.Result.AnalyticErr, want)
		}
	}
	if seen != 2 {
		t.Fatalf("setup: %d points at K/M=1e300, want 2", seen)
	}
}
