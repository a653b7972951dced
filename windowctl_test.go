package windowctl_test

import (
	"math"
	"strings"
	"testing"

	"windowctl"
)

func TestQuickstartFlow(t *testing.T) {
	sys := windowctl.System{M: 25, RhoPrime: 0.5, K: 50, Seed: 1}
	an, err := sys.AnalyticLoss()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Simulate(windowctl.SimOptions{EndTime: 3e5, Warmup: 2e4})
	if err != nil {
		t.Fatal(err)
	}
	if an.Loss <= 0 || an.Loss >= 1 {
		t.Fatalf("analytic loss %v", an.Loss)
	}
	if math.Abs(rep.Loss()-an.Loss) > 0.5*an.Loss+0.02 {
		t.Fatalf("sim %v far from analytic %v", rep.Loss(), an.Loss)
	}
}

func TestFacadeDisciplines(t *testing.T) {
	for _, d := range []windowctl.Discipline{windowctl.Controlled, windowctl.FCFS, windowctl.LCFS, windowctl.Random} {
		sys := windowctl.System{M: 25, RhoPrime: 0.25, K: 75, Discipline: d, Seed: 2}
		rep, err := sys.Simulate(windowctl.SimOptions{EndTime: 1e5, Warmup: 1e4})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if rep.Transmissions == 0 {
			t.Fatalf("%v: nothing transmitted", d)
		}
	}
}

func TestFigure7Facade(t *testing.T) {
	panels := windowctl.AllFigure7Panels()
	if len(panels) != 6 {
		t.Fatalf("panels = %d", len(panels))
	}
	panel, err := windowctl.Figure7Panel(
		windowctl.PanelSpec{RhoPrime: 0.5, M: 25, KOverM: []float64{1, 2}},
		windowctl.Figure7Options{Disable: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(panel.Points) != 2 {
		t.Fatalf("points = %d", len(panel.Points))
	}
	if !strings.Contains(panel.Format(), "rho'=0.50") {
		t.Fatal("format header missing")
	}
	many, err := windowctl.Figure7Panels([]windowctl.PanelSpec{
		{RhoPrime: 0.25, M: 25, KOverM: []float64{2}},
		{RhoPrime: 0.75, M: 25, KOverM: []float64{2}},
	}, windowctl.Figure7Options{Disable: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 2 || len(many[0].Points) != 1 || len(many[1].Points) != 1 {
		t.Fatalf("unexpected multi-panel shape: %+v", many)
	}
	if !(many[0].Points[0].Controlled < many[1].Points[0].Controlled) {
		t.Fatalf("loss should grow with load: %v vs %v",
			many[0].Points[0].Controlled, many[1].Points[0].Controlled)
	}
}

func TestVariableLengthsFacade(t *testing.T) {
	sys := windowctl.System{M: 25, RhoPrime: 0.5, K: 75, Seed: 9,
		TxLengths: windowctl.ExponentialLength(25)}
	an, err := sys.AnalyticLoss()
	if err != nil {
		t.Fatal(err)
	}
	fixed := sys
	fixed.TxLengths = nil
	anFixed, err := fixed.AnalyticLoss()
	if err != nil {
		t.Fatal(err)
	}
	if an.Loss <= anFixed.Loss {
		t.Fatalf("exponential lengths %v should lose more than fixed %v", an.Loss, anFixed.Loss)
	}
	// The other length constructors produce the requested means.
	if m := windowctl.FixedLength(25).Mean(); m != 25 {
		t.Fatalf("FixedLength mean %v", m)
	}
	if m := windowctl.ErlangLength(4, 25).Mean(); math.Abs(m-25) > 1e-9 {
		t.Fatalf("ErlangLength mean %v", m)
	}
}

func TestReplicatedFacade(t *testing.T) {
	sys := windowctl.System{M: 25, RhoPrime: 0.75, K: 25, Seed: 10}
	r, err := sys.SimulateReplicated(4, windowctl.SimOptions{EndTime: 8e4, Warmup: 8e3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 4 || r.LossHalfWidth <= 0 {
		t.Fatalf("replicated facade: %+v", r)
	}
}

func TestHeterogeneousFacade(t *testing.T) {
	sys := windowctl.System{M: 25, RhoPrime: 0.5, K: 50, Seed: 5}
	rep, err := sys.SimulateHeterogeneous([]windowctl.Transform{
		windowctl.PriorityStretch(1.3, 1),
		windowctl.ClockSkew(0.2, 0.1),
		nil,
	}, windowctl.SimOptions{EndTime: 1e5, Warmup: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stations) != 3 {
		t.Fatalf("stations = %d", len(rep.Stations))
	}
	if rep.Transmissions == 0 {
		t.Fatal("nothing transmitted")
	}
}

// TestHeterogeneousFacadeInstrumented runs the §5 extensions through the
// facade with a collector and injected faults.  With the bug (a
// heterogeneous engine without either) the run fails with "supports
// neither Faults nor a Collector" instead of booking its transmissions.
func TestHeterogeneousFacadeInstrumented(t *testing.T) {
	sys := windowctl.System{M: 25, RhoPrime: 0.5, K: 50, Seed: 5}
	sm := windowctl.NewSlotMetrics(1, 64)
	rep, err := sys.SimulateHeterogeneous([]windowctl.Transform{
		windowctl.PriorityStretch(1.3, 1),
		windowctl.ClockSkew(0.2, 0.1),
		nil,
	}, windowctl.SimOptions{
		EndTime: 1e5, Warmup: 1e4, Collector: sm,
		Faults: windowctl.FaultConfig{Rates: windowctl.FaultRates{Erasure: 0.01, MissedCollision: 0.01}, Seed: 3},
	})
	if err != nil {
		t.Fatalf("instrumented heterogeneous run failed: %v", err)
	}
	if rep.Transmissions == 0 || sm.Transmissions != rep.Transmissions {
		t.Errorf("SlotMetrics booked %d transmissions, want the report's %d (nonzero)", sm.Transmissions, rep.Transmissions)
	}
	if sm.Faults() == 0 {
		t.Error("SlotMetrics booked 0 faults, want some at 1% erasures and missed collisions")
	}
}

func TestOptimalWindowContent(t *testing.T) {
	g := windowctl.OptimalWindowContent()
	if g < 0.8 || g > 1.5 {
		t.Fatalf("G* = %v implausible", g)
	}
}
