package main

import (
	"runtime"
	"time"

	"windowctl/internal/core"
	"windowctl/internal/rngutil"
	"windowctl/internal/sweep"
)

// Tags separating the random streams derived from the workload seed.
const (
	seedTagLoad = iota + 1
	seedTagGrid
	seedTagMulti
)

// Every windowd runs the paper's normalized operating point: τ = 1,
// M = 25, engine seed 1, a 2 s drain bound.
const (
	svcTau  = 1.0
	svcM    = 25.0
	svcSeed = 1
)

// svcWorkload is one traffic mix against windowd.
type svcWorkload struct {
	km, k float64 // constraint: k absolute when nonzero, else km·M·τ
	load  float64 // windowd's design load ρ′
	rate  float64 // offered msgs/s: the closed loop's ceiling or the open loop's rate
	// limit caps sent − decided in a closed loop (0: open loop).  It holds
	// about 0.6 s of decisions at saturation: a dozen polls of the decided
	// count, so the pump never parks, yet short enough that the latency of
	// the messages decided in a slice reflects that slice's rate, and that
	// a SIGTERM drains the ledger without materializing a backlog.
	limit int64
}

func (w svcWorkload) constraint() float64 {
	if w.k != 0 {
		return w.k
	}
	return w.km * svcM * svcTau
}

// svcWorkloads: the figure-7 point at the pump's capacity, a standing
// overload, and an open loop at about a third of capacity.
var svcWorkloads = map[string]svcWorkload{
	"svc-saturate": {km: 2, load: 0.75, rate: 2e7, limit: 1 << 18},
	"svc-overload": {k: 5000, load: 2, rate: 2e7, limit: 1 << 20},
	"svc-paced":    {km: 2, load: 0.75, rate: 150e3},
}

// plan sizes one run.
type plan struct {
	warm    time.Duration // before the measured window
	window  time.Duration // the measured window
	setupN  int           // set-ups whose median is setup_s
	grid    sweep.Space
	workers int
	multi   multiShape
}

// multiShape is the million-station run: ρ′ = 0.5, K/M = 2, M = 25.
type multiShape struct {
	stations int
	end      float64
}

func newPlan(o options) plan {
	p := plan{
		warm:    3 * time.Second,
		window:  time.Duration(o.seconds * float64(time.Second)),
		setupN:  9,
		workers: runtime.GOMAXPROCS(0),
		grid: sweep.Space{
			Loads:       []float64{0.25, 0.5, 0.75},
			Ms:          []float64{25, 100},
			KOverM:      []float64{0.5, 1, 1.5, 2, 3, 4, 6, 8},
			Disciplines: []core.Discipline{core.Controlled, core.FCFS, core.LCFS},
			Messages:    5e4,
			// The sweep reserves seed 0; any workload seed maps to a
			// nonzero one.
			Seed: rngutil.Mix64(o.seed, seedTagGrid) | 1,
		},
		multi: multiShape{stations: 1_000_000, end: 2e7},
	}
	if o.quick {
		p.warm = 500 * time.Millisecond
		p.window = 2 * time.Second
		p.setupN = 1
		p.grid.Loads = []float64{0.5}
		p.grid.Ms = []float64{25}
		p.grid.KOverM = []float64{1, 2}
		p.grid.Messages = 2e4
		p.multi = multiShape{stations: 10_000, end: 1e6}
	}
	return p
}
