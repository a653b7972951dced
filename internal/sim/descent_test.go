package sim

import (
	"fmt"
	"reflect"
	"testing"

	"windowctl/internal/metrics"
	"windowctl/internal/protocol/acdc"
	"windowctl/internal/window"
)

// descentConfigs are the policies the two-key descent serves — both key
// rules, a split fraction off one half, and a protocol plugin — at an
// integer and a non-integer slot time.
func descentConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for _, tau := range []float64{1, 0.37} {
		for name, c := range map[string]Config{
			"controlled":    {Protocol: "controlled"},
			"fcfs":          {Protocol: "fcfs"},
			"lcfs":          {Protocol: "lcfs"},
			"acdc":          {Protocol: acdc.Name},
			"fraction-0.3":  {Policy: window.Controlled{Length: window.FixedG(2), Fraction: 0.3}},
			"variant-newer": {Policy: window.ControlledVariant{Length: window.FixedG(2), Side: window.Newer}},
		} {
			c.Tau, c.M, c.Lambda, c.K = tau, 25, 0.8/(25*tau), 50*tau
			c.EndTime, c.Warmup, c.Seed = 200000*tau, 2000*tau, 23
			cfgs[fmt.Sprintf("%s/tau=%v", name, tau)] = c
		}
	}
	return cfgs
}

// RunGlobal with the descent gate open and forced shut must give the
// same report and the same collector, field for field: the descent books
// every process exactly as the resolver loop does.
func TestGlobalDescentMatchesResolver(t *testing.T) {
	for name, cfg := range descentConfigs() {
		t.Run(name, func(t *testing.T) {
			run := func(descend bool) (Report, *metrics.SlotMetrics) {
				c := cfg
				c.Collector = metrics.NewSlotMetrics(c.Tau, 256)
				g, err := newGlobalState(c)
				if err != nil {
					t.Fatal(err)
				}
				if !g.descend {
					t.Fatal("the descent gate is shut for a perfect-feedback run")
				}
				g.descend = descend
				rep, err := g.run()
				if err != nil {
					t.Fatal(err)
				}
				return rep, c.Collector.(*metrics.SlotMetrics)
			}
			got, gotCol := run(true)
			want, wantCol := run(false)
			if got.Transmissions < 1000 || gotCol.Splits == 0 {
				t.Fatalf("setup: %d transmissions, %d splits: too few to compare", got.Transmissions, gotCol.Splits)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("report with the descent differs:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(gotCol, wantCol) {
				t.Errorf("collector with the descent differs:\n got %+v\nwant %+v", gotCol, wantCol)
			}
		})
	}
}

// The Stepper runs the same process code: with injected arrivals, whose
// stamps can lead the clock, the descent must leave the stepped run's
// clock, report and collector exactly as the resolver leaves them.
func TestStepperDescentMatchesResolver(t *testing.T) {
	for name, cfg := range descentConfigs() {
		t.Run(name, func(t *testing.T) {
			run := func(descend bool) (Report, *metrics.SlotMetrics, float64) {
				c := cfg
				c.EndTime, c.Warmup = 0, 0
				c.Collector = metrics.NewSlotMetrics(c.Tau, 256)
				s, err := NewStepper(c)
				if err != nil {
					t.Fatal(err)
				}
				s.g.descend = descend
				for i := 0; i < 40000; i++ {
					s.Inject(i % 3 * (i % 7 / 5)) // bursts of 0, 1 or 2
					if err := s.Step(); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := s.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return rep, c.Collector.(*metrics.SlotMetrics), s.Now()
			}
			got, gotCol, gotNow := run(true)
			want, wantCol, wantNow := run(false)
			if got.Transmissions < 1000 {
				t.Fatalf("setup: only %d transmissions", got.Transmissions)
			}
			if gotNow != wantNow {
				t.Errorf("clock with the descent %v, resolver %v", gotNow, wantNow)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("report with the descent differs:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(gotCol, wantCol) {
				t.Errorf("collector with the descent differs:\n got %+v\nwant %+v", gotCol, wantCol)
			}
		})
	}
}
