// Package benchcase pins the workloads of the simulator benchmark-
// regression harness.  bench_test.go (go test -bench) and cmd/simbench
// (the CI regression gate and BENCH_*.json writer) must time the same
// operating points, so both import their cases from here.
//
// The two backlog regimes bracket the pending-queue cost:
//
//   - small: a stable load where the backlog is mostly a handful of
//     messages — the regime every figure-7 panel runs in;
//   - large: a deliberate overload where element-(4) discards bound the
//     backlog at several hundred messages — the regime where the old
//     sorted-slice queue paid an O(n) memmove per extraction and per
//     discard batch, and the indexed queue's O(log n) operations pay off.
package benchcase

import (
	"windowctl/internal/core"
	"windowctl/internal/sim"
	"windowctl/internal/station"
	"windowctl/internal/sweep"
	"windowctl/internal/window"
)

// GlobalCase is one RunGlobal workload.
type GlobalCase struct {
	Name string
	Cfg  sim.Config
}

// MultiCase is one RunMultiStation workload.
type MultiCase struct {
	Name string
	Cfg  sim.MultiConfig
}

// SweepCase is one grid-driver workload: the harness times the same
// space cold (empty cache, every point simulated) and warm (second run
// on the same cache directory, every point answered from disk), so the
// recorded points/sec pair pins both the work-queue and the
// cache-lookup paths against regression.
type SweepCase struct {
	Name  string
	Space sweep.Space
}

// globalEnd keeps one iteration around tens of milliseconds.
const globalEnd = 2e5

// Global returns the global-view engine workloads.
func Global() []GlobalCase {
	g := window.FixedG(2.6)
	return []GlobalCase{
		{
			Name: "small-backlog",
			Cfg: sim.Config{
				Policy:  window.Controlled{Length: g},
				Tau:     1,
				M:       25,
				Lambda:  0.5 / 25,
				K:       50,
				EndTime: globalEnd,
				Seed:    101,
			},
		},
		{
			// ρ′ = 2: twice the channel capacity.  Discards keep the run
			// stable with a standing backlog of several hundred messages.
			Name: "large-backlog",
			Cfg: sim.Config{
				Policy:  window.Controlled{Length: g},
				Tau:     1,
				M:       25,
				Lambda:  2.0 / 25,
				K:       5000,
				EndTime: globalEnd,
				Seed:    103,
			},
		},
	}
}

// Multi returns the multi-station engine workloads.
//
// The two backlog cases mirror the global pair at a small population;
// the M-scaling cases hold the operating point fixed (ρ′ = 0.5, the
// stable figure-7 regime) while the population grows a thousandfold.
// Poisson stations make RunMultiStation the global engine, with no
// per-station state at all, so any cost that is secretly O(M) shows up
// as a thousandfold ns/message blowup instead of hiding inside a single
// point; m1e6 (~4000 messages) and m1e6-long (~40 000) differ only in
// length.  m1e6-onoff is the one case with a station bank: a million
// on/off sources at the same mean rate, whose build (a million first
// draws) and epoch merge carry most of its time.
func Multi() []MultiCase {
	g := window.FixedG(2.6)
	return []MultiCase{
		{
			Name: "small-backlog",
			Cfg: sim.MultiConfig{
				Config: sim.Config{
					Policy:  window.Controlled{Length: g},
					Tau:     1,
					M:       25,
					Lambda:  0.5 / 25,
					K:       50,
					EndTime: 2e4,
					Seed:    107,
				},
				Stations: 16,
			},
		},
		{
			Name: "large-backlog",
			Cfg: sim.MultiConfig{
				Config: sim.Config{
					Policy:  window.Controlled{Length: g},
					Tau:     1,
					M:       25,
					Lambda:  1.5 / 25,
					K:       1000,
					EndTime: 2e4,
					Seed:    109,
				},
				Stations: 16,
			},
		},
		mScale("m1e3", 1_000, 113, 2e5),
		mScale("m1e5", 100_000, 127, 2e5),
		mScale("m1e6", 1_000_000, 131, 2e5),
		mScale("m1e6-long", 1_000_000, 131, 2e6),
		multiOnOff(),
	}
}

// mScale is a Poisson M-scaling case: ρ′ = 0.5, K/M = 2.
func mScale(name string, stations int, seed uint64, end float64) MultiCase {
	return MultiCase{
		Name: name,
		Cfg: sim.MultiConfig{
			Config: sim.Config{
				Policy:  window.Controlled{Length: window.FixedG(2.6)},
				Tau:     1,
				M:       25,
				Lambda:  0.5 / 25,
				K:       50,
				EndTime: end,
				Seed:    seed,
			},
			Stations: stations,
		},
	}
}

// multiOnOff is m1e6-long's point with on/off sources (duty cycle 0.9)
// in place of Poisson ones.  Every source starts in a talkspurt, and
// talkspurts (mean 9·10⁷ slots) outlast the run: about 2% of the
// sources fall silent in it, and the rest fire at OnRate, an aggregate
// ρ′ of about 0.55.  With about two messages per talkspurt an arrival
// costs the Bank a few draws, as a Poisson one does, rather than the
// thousands of silent cycles of a talkspurt shorter than the gap.
func multiOnOff() MultiCase {
	c := mScale("m1e6-onoff", 1_000_000, 137, 2e6)
	const duty = 0.9
	perStation := c.Cfg.Lambda / float64(c.Cfg.Stations)
	c.Cfg.Arrivals = func(int) station.ArrivalProcess {
		return &station.OnOff{OnRate: perStation / duty, MeanOn: 9e7, MeanOff: 1e7}
	}
	return c
}

// Sweep returns the grid-driver workloads: a figure-7-shaped controlled
// grid (one panel's load triple over the full constraint axis), sized so
// one cold evaluation takes tens of milliseconds and the warm replay is
// dominated by cache open + lookup.
func Sweep() []SweepCase {
	return []SweepCase{
		{
			Name: "grid24",
			Space: sweep.Space{
				Loads:       []float64{0.25, 0.5, 0.75},
				Ms:          []float64{25},
				KOverM:      []float64{0.5, 1, 1.5, 2, 3, 4, 6, 8},
				Disciplines: []core.Discipline{core.Controlled},
				Messages:    2e4,
				Seed:        1983,
			},
		},
	}
}
