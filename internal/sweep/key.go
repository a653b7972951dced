package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
)

// SchemaVersion names the cache entry layout.  Entries carrying a
// different schema are skipped at load (treated as misses), so a layout
// change never misreads old shards.
const SchemaVersion = "windowctl-sweep/1"

// EngineVersion names the simulators' bit-identity contract a cached
// result was computed under.  It is mixed into every key, so bumping it
// atomically invalidates the whole cache.  Bump it whenever the engine
// goldens (internal/sim/equiv_golden_test.go) are regenerated, or when
// the sweep seed-derivation scheme changes — any change that makes the
// same Point produce different bits.
const EngineVersion = "engine-goldens/11"

// Key returns the point's content address: a SHA-256 over the
// canonicalized configuration plus SchemaVersion and EngineVersion,
// rendered as lowercase hex.  Floats are hashed by their IEEE-754 bit
// patterns, so the canonical form is exact — no formatting or rounding
// is involved, and two points key equal iff every parameter is
// bit-equal.
func (p Point) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", SchemaVersion, EngineVersion)
	fmt.Fprintf(h, "tau=%016x rho=%016x m=%016x km=%016x disc=%s eps=%016x",
		math.Float64bits(p.Tau), math.Float64bits(p.RhoPrime),
		math.Float64bits(p.M), math.Float64bits(p.KOverM),
		p.Discipline, math.Float64bits(p.ErrorRate))
	fmt.Fprintf(h, " er=%016x fc=%016x mc=%016x",
		math.Float64bits(p.Rates.Erasure),
		math.Float64bits(p.Rates.FalseCollision),
		math.Float64bits(p.Rates.MissedCollision))
	fmt.Fprintf(h, " seed=%016x fseed=%016x msgs=%016x reps=%d",
		p.Seed, p.FaultSeed, math.Float64bits(p.Messages), p.Replications)
	return hex.EncodeToString(h.Sum(nil))
}

// Result is the evaluated outcome of one Point.  Every field is finite
// (NaN and ±Inf are sanitized at construction), so the struct survives
// a JSON round trip bit-exactly — the property that makes warm-cache
// CSV byte-identical to cold-run CSV.
type Result struct {
	// AnalyticLoss is the §4 model prediction; valid only when
	// AnalyticOK (the Random discipline has no analytic model, and the
	// baseline queues can be unstable at high load).  AnalyticErr
	// records why a solve failed; a model that solves to NaN (far past
	// saturation) leaves both AnalyticOK and AnalyticErr unset.
	AnalyticLoss float64 `json:"analytic_loss"`
	AnalyticOK   bool    `json:"analytic_ok"`
	AnalyticErr  string  `json:"analytic_err,omitempty"`
	// SimLoss is the simulated loss fraction (the replication mean when
	// Replications >= 2), with [SimLo, SimHi] its 95% confidence
	// interval (Wilson within-run for a single run, Student-t across
	// replications otherwise).  Valid only when SimOK; SimErr records
	// why a requested simulation produced no value (e.g. an unstable
	// baseline exceeding MaxBacklog) — failures are cached too, so
	// re-runs do not re-simulate known-hopeless points.
	SimLoss float64 `json:"sim_loss"`
	SimLo   float64 `json:"sim_lo"`
	SimHi   float64 `json:"sim_hi"`
	SimOK   bool    `json:"sim_ok"`
	SimErr  string  `json:"sim_err,omitempty"`
	// MeanWait is the mean true waiting time of transmitted messages
	// and Utilization the fraction of channel time spent on successful
	// transmissions (both from the simulation; zero when not simulated).
	MeanWait    float64 `json:"mean_wait"`
	Utilization float64 `json:"utilization"`
	// Offered and Decided count the measured messages of the simulation
	// (summed across replications).
	Offered int64 `json:"offered"`
	Decided int64 `json:"decided"`
}

// fin sanitizes a float for the Result contract: NaN and ±Inf map to 0.
func fin(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
