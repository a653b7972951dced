package sim

import (
	"fmt"
	"math"
	"runtime"

	"windowctl/internal/station"
	"windowctl/internal/window"
)

// MultiConfig parameterizes the full multi-station simulation.
type MultiConfig struct {
	Config
	// Stations is the number of senders; the total rate Lambda is split
	// evenly among them.  Must be >= 1.
	Stations int
	// Arrivals, when non-nil, supplies each station's arrival process
	// (e.g. an on/off talkspurt source) instead of the default Poisson
	// split of Lambda; a station.Bank then draws and merges the M
	// streams.  Config.Lambda must still give the aggregate mean rate —
	// it parameterizes the window-length rule.  The factory is called
	// sequentially in station-index order.  Each station needs a process
	// instance of its own: the order in which draws interleave across
	// stations is unspecified, so a process shared by several stations
	// makes the run depend on it.
	Arrivals func(station int) station.ArrivalProcess
	// Workers shards the station bank's initialization (Arrivals only)
	// and, in the per-station engine, the O(M) per-slot loops.  <= 0
	// means GOMAXPROCS.  Reports are bit-identical at any value.
	Workers int

	// forceDense routes the run through the per-station reference engine
	// even when the shared path applies (test-only: the equivalence suite
	// drives both engines over one config and requires bit-identical
	// reports).
	forceDense bool
	// lockstepEvery and lockstepSample override the per-station engine's
	// sampled lockstep check, every 64 probe slots over min(4, Stations)
	// stations when <= 0 (test-only: the tests tighten it).
	lockstepEvery, lockstepSample int
	// lockstepFaultAt, when > 0, corrupts one verified state machine's
	// feedback from that probe slot onward (test-only: proves sampled
	// verification still catches desynchronization).
	lockstepFaultAt int64
}

// workerCount resolves the Workers field.
func (cfg *MultiConfig) workerCount() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunMultiStation simulates the distributed protocol and returns the
// measured report.  Under common channel feedback — perfect channels and
// common-noise faults — every station's Tracker and Resolver pass through
// identical states, so the network evolves as one pending queue plus one
// resolver: the run is the global engine's (descent and idle skip
// included), and a windowing process costs a few pending-queue lookups,
// independent of M.  With Poisson stations it is RunGlobal on the same
// Config, the M streams being one Poisson(Lambda) stream; with Arrivals
// the engine takes a station.Bank merge of the M streams.  Per-station
// feedback faults break the symmetry (stations truly diverge), so that
// case runs on the per-station reference engine, which the tests hold
// the shared path to bit for bit.
func RunMultiStation(cfg MultiConfig) (Report, error) {
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	if cfg.Stations < 1 {
		return Report{}, fmt.Errorf("sim: need >= 1 station, got %d", cfg.Stations)
	}
	if err := cfg.rejectGlobalOnly(); err != nil {
		return Report{}, err
	}
	if cfg.forceDense || (cfg.Faults.Enabled() && cfg.Faults.PerStation) {
		rep, err := runMultiDense(cfg, nil)
		return rep.Report, err
	}
	g, err := newSharedState(cfg)
	if err != nil {
		return Report{}, err
	}
	return g.run()
}

// newSharedState builds the shared-path engine for a validated cfg
// without running it (the tests drive it step by step): the global
// engine, fed by the station bank when cfg has Arrivals.
func newSharedState(cfg MultiConfig) (*globalState, error) {
	bank, err := cfg.bank()
	if err != nil {
		return nil, err
	}
	// The shared policy replica forks exactly like the per-station
	// replicas of the reference engine, so common-randomness draws match
	// it sequence for sequence.
	if f, ok := cfg.Policy.(window.ForkablePolicy); ok {
		cfg.Policy = f.Fork()
	}
	return buildGlobalState(cfg.Config, bank)
}

// bank builds the station bank of cfg's Arrivals; it is nil for Poisson
// stations, which need none.
func (cfg *MultiConfig) bank() (*station.Bank, error) {
	if cfg.Arrivals == nil {
		return nil, nil
	}
	bank, err := station.NewBank(cfg.Stations, cfg.Seed, 0, cfg.Arrivals, cfg.workerCount())
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return bank, nil
}

// clockStep checks a slot engine's move from the slot at now to the next
// one at next.  The channel is slotted, so each engine's timeline is one
// slot after another and its clock must move strictly forward to a finite
// time; a slot that breaks this is a model bug, and the error fails the
// run instead of letting it loop in place.
func clockStep(now, next float64) error {
	if now < next && next <= math.MaxFloat64 {
		return nil
	}
	return fmt.Errorf("sim: slot at t=%v is followed by one at t=%v", now, next)
}

// rejectGlobalOnly rejects the Config fields that only the global engine
// implements, which the slot engines would otherwise silently ignore.
func (c *Config) rejectGlobalOnly() error {
	switch {
	case c.TxLengths != nil:
		return fmt.Errorf("sim: TxLengths is supported by the global simulator only")
	case c.RateEstimator != nil:
		return fmt.Errorf("sim: RateEstimator is supported by the global simulator only")
	case c.ExternalArrivals:
		return fmt.Errorf("sim: ExternalArrivals is supported by the global simulator only")
	}
	return nil
}
