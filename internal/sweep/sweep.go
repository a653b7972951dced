// Package sweep is the phase-diagram-scale grid evaluation engine: it
// turns a typed parameter space over (ρ′, M, K, discipline, feedback-
// error rate, replications) into canonical per-point configurations,
// addresses every point's result by a content hash of that
// configuration, and executes cache misses from one work queue that
// saturates all cores while staying bit-identical to a serial run.
//
// The paper's figure-7 panel is 18 points; the production questions the
// ROADMAP asks — loss and degradation surfaces over the full parameter
// space — need 1e5–1e6 point grids that must be cheap to *re-run*: a
// superset sweep, a crashed sweep resumed, or the same grid replayed
// after an unrelated code change should only pay for the points that
// are actually new.  Three design decisions carry that:
//
//   - Identity-derived randomness.  A point's simulation seed is a
//     Mix64 hash of the point's parameter values (not its grid
//     position), so the same operating point gets the same result in
//     any grid that contains it, at any worker count, in any execution
//     order.  Feedback-error grids reuse the degradation pipeline's
//     common-random-numbers scheme: every ε of one operating point
//     shares one simulation seed and one fault-schedule seed, so cells
//     differ only through the injected faults.
//
//   - Content-addressed results.  Point.Key is a SHA-256 over the
//     canonicalized configuration plus the schema and engine versions;
//     the on-disk cache (see Cache) maps keys to results in sharded
//     JSON-lines files.  Any code change that breaks the engines'
//     bit-identity contract must bump EngineVersion, invalidating every
//     cached result at once.
//
//   - Deterministic assembly.  Run returns outcomes in enumeration
//     order with all values taken from the (JSON-round-trip-exact)
//     Result, so emitted CSV is byte-identical across worker counts and
//     across cold/warm cache runs — pinned by tests and by the CI smoke
//     job.
//
// The analytic column is solved once per (τ, M, ρ′) group, not once per
// point: one queueing.ProtocolModel.LossGrids call over the space's
// whole K axis serves every constraint, error rate and discipline of the
// group, sharing one convolution series where the per-point solves would
// each run their own.  The call's input is fixed by the space's τ and K
// axis, so a point's analytic value is exact (bit for bit the same)
// within one space, whichever of its points were cached.  Across spaces
// with different K axes the quadrature grids differ in length, and the
// same point's value agrees within 1e-12, as it does with a per-point
// solve.
//
// Run is the repository's one grid driver.  The paper's figure-7 panels
// and the feedback-error degradation curves (Figure7Panels,
// DegradationPanels) are views over it: each panel is one Space, and
// sim.Panel and sim.DegradationPanel are filled from its outcomes.
package sweep

import (
	"fmt"
	"math"

	"windowctl/internal/core"
	"windowctl/internal/fault"
	"windowctl/internal/rngutil"
)

// DefaultDisciplines is the discipline axis used when a Space leaves it
// empty: the paper's controlled protocol and the two analytic baselines.
var DefaultDisciplines = []core.Discipline{core.Controlled, core.FCFS, core.LCFS}

// sweepFaultTag separates the fault-schedule seed stream from the
// simulation seed it derives from (the same role the degradation
// pipeline's tag plays).  It is part of the reproducibility contract:
// changing it changes every faulted point's schedule and therefore its
// key's result.
const sweepFaultTag = 0x53ee9

// Space is a typed parameter space: the cross product of its axes
// enumerates into canonical point configurations.  Axes that apply to
// every point (Tau, Messages, Replications, seeds) are scalars.
type Space struct {
	// Tau is the slot time; 0 means 1 (the natural unit).
	Tau float64
	// Loads is the offered-load axis ρ′; required, positive, no
	// duplicates.
	Loads []float64
	// Ms is the message-length axis (slots); required, positive, no
	// duplicates.
	Ms []float64
	// KOverM is the constraint axis in message times; required,
	// positive, no duplicates.  The absolute constraint of a point is
	// KOverM·M·Tau.
	KOverM []float64
	// Disciplines is the protocol axis; empty means DefaultDisciplines.
	Disciplines []core.Discipline
	// ErrorRates is the feedback-error axis ε; empty means {0} (perfect
	// feedback).  At grid value ε the injected per-slot fault rates are
	// Mix.Scale(ε), exactly as in the degradation pipeline.
	ErrorRates []float64
	// Mix weighs the three fault kinds at ε = 1; the zero value means
	// every kind at weight 1.  Scaled rates must stay in [0, 1].
	Mix fault.Rates
	// FaultSeed bases the fault-schedule seed derivation; 0 derives the
	// schedules from Seed.
	FaultSeed uint64
	// Replications is the number of independent simulation replications
	// per point; <= 1 means a single run (Wilson within-run CI), >= 2
	// aggregates a cross-replication Student-t CI.
	Replications int
	// Messages is the target number of offered messages per simulation
	// run; 0 disables simulation (analytic-only sweep).
	Messages float64
	// Seed drives all simulation randomness; required nonzero (0 is the
	// derive-from-base sentinel of the fault-seed convention and is
	// rejected to keep the two seed spaces disjoint).
	Seed uint64
}

// checkAxis validates one grid axis: nonempty, finite, positive unless
// allowZero, and duplicate-free.  Duplicate grid values are almost
// always a flag typo, and they would silently double-count rows in
// every emitted surface.
func checkAxis(name string, vals []float64, allowZero bool) error {
	if len(vals) == 0 {
		return fmt.Errorf("sweep: empty %s axis", name)
	}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sweep: %s[%d] = %v is not finite", name, i, v)
		}
		if v < 0 || (v == 0 && !allowZero) {
			return fmt.Errorf("sweep: %s[%d] = %v must be positive", name, i, v)
		}
		for j := 0; j < i; j++ {
			if vals[j] == v {
				return fmt.Errorf("sweep: duplicate %s value %v (positions %d and %d)", name, v, j, i)
			}
		}
	}
	return nil
}

// Normalize validates the space and fills defaults (Tau, Disciplines,
// ErrorRates, Mix, Replications).  Run normalizes internally; callers
// that index outcomes against the axes (the wide and heatmap emitters
// do) should normalize once and use the normalized space throughout.
func (s Space) Normalize() (Space, error) {
	if s.Tau == 0 {
		s.Tau = 1
	}
	if s.Tau < 0 || math.IsNaN(s.Tau) || math.IsInf(s.Tau, 0) {
		return s, fmt.Errorf("sweep: Tau %v must be positive and finite", s.Tau)
	}
	if s.Seed == 0 {
		return s, fmt.Errorf("sweep: Seed must be nonzero (0 is reserved as the derive-from-base fault-seed sentinel)")
	}
	if err := checkAxis("loads", s.Loads, false); err != nil {
		return s, err
	}
	if err := checkAxis("ms", s.Ms, false); err != nil {
		return s, err
	}
	if err := checkAxis("k/m", s.KOverM, false); err != nil {
		return s, err
	}
	if len(s.Disciplines) == 0 {
		s.Disciplines = append([]core.Discipline(nil), DefaultDisciplines...)
	}
	for i, d := range s.Disciplines {
		if _, err := ParseDiscipline(d.String()); err != nil {
			return s, fmt.Errorf("sweep: disciplines[%d]: %w", i, err)
		}
		for j := 0; j < i; j++ {
			if s.Disciplines[j] == d {
				return s, fmt.Errorf("sweep: duplicate discipline %v", d)
			}
		}
	}
	if len(s.ErrorRates) == 0 {
		s.ErrorRates = []float64{0}
	}
	if err := checkAxis("error-rates", s.ErrorRates, true); err != nil {
		return s, err
	}
	if s.Mix.Zero() {
		s.Mix = fault.Rates{Erasure: 1, FalseCollision: 1, MissedCollision: 1}
	}
	for _, eps := range s.ErrorRates {
		if err := s.Mix.Scale(eps).Validate(); err != nil {
			return s, fmt.Errorf("sweep: error rate %v: %w", eps, err)
		}
	}
	if s.Replications < 0 {
		return s, fmt.Errorf("sweep: negative Replications %d", s.Replications)
	}
	if s.Replications <= 1 {
		s.Replications = 1
	}
	if s.Messages < 0 || math.IsNaN(s.Messages) || math.IsInf(s.Messages, 0) {
		return s, fmt.Errorf("sweep: Messages %v must be non-negative and finite", s.Messages)
	}
	return s, nil
}

// Size returns the number of points the space enumerates to.
func (s Space) Size() int {
	n := len(s.Loads) * len(s.Ms) * len(s.KOverM)
	if d := len(s.Disciplines); d > 0 {
		n *= d
	} else {
		n *= len(DefaultDisciplines)
	}
	if e := len(s.ErrorRates); e > 0 {
		n *= e
	}
	return n
}

// Point is one canonical operating-point configuration: a pure value
// whose fields completely determine its Result.  Points are the unit of
// content addressing — see Key.
type Point struct {
	// Tau, RhoPrime, M and KOverM give the operating point in the
	// paper's parameterization; K = KOverM·M·Tau.
	Tau      float64 `json:"tau"`
	RhoPrime float64 `json:"rho_prime"`
	M        float64 `json:"m"`
	KOverM   float64 `json:"k_over_m"`
	// Discipline is the canonical protocol name (core.Discipline.String).
	Discipline string `json:"discipline"`
	// ErrorRate is the feedback-error grid value ε; Rates the effective
	// per-kind probabilities Mix.Scale(ε) injected at this point.
	ErrorRate float64     `json:"error_rate"`
	Rates     fault.Rates `json:"fault_rates"`
	// Seed is the identity-derived simulation seed; FaultSeed the
	// identity-derived fault-schedule seed (0 when Rates are all zero).
	Seed      uint64 `json:"seed"`
	FaultSeed uint64 `json:"fault_seed"`
	// Messages is the per-run offered-message target (0 = analytic
	// only); Replications the replication count (>= 1).
	Messages     float64 `json:"messages"`
	Replications int     `json:"replications"`
}

// K returns the absolute waiting-time constraint of the point.
func (p Point) K() float64 { return p.KOverM * p.M * p.Tau }

// ParseDiscipline maps a canonical discipline name back to its value.
// It accepts every core discipline — including the protocol-zoo
// entries (tournament, acdc) — so the sweep axis ranges over the full
// MAC zoo.
func ParseDiscipline(name string) (core.Discipline, error) {
	for _, d := range core.Disciplines() {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown discipline %q", name)
}

// identitySeed derives a point-identity seed from a base seed and the
// operating point's parameter *values* — deliberately not its grid
// position and deliberately not ε, so that (a) the same operating point
// keys identically inside any grid that contains it (supersets reuse
// cached results) and (b) all error rates of one operating point share
// one simulation stream (common random numbers, as in the degradation
// pipeline: a cell differs from its ε-neighbour only through the
// injected faults).
func identitySeed(base uint64, tau, rho, m, km float64, disc core.Discipline) uint64 {
	return rngutil.Mix64(base,
		math.Float64bits(tau),
		math.Float64bits(rho),
		math.Float64bits(m),
		math.Float64bits(km),
		uint64(disc),
	)
}

// Enumerate expands the space into its canonical points, in row-major
// axis order: loads, ms, k/m, error rates, disciplines (disciplines
// innermost).  The order is part of the contract — the wide and heatmap
// emitters index outcomes against it.
func (s Space) Enumerate() ([]Point, error) {
	s, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	faultBase := s.FaultSeed
	if faultBase == 0 {
		faultBase = s.Seed
	}
	pts := make([]Point, 0, s.Size())
	for _, rho := range s.Loads {
		for _, m := range s.Ms {
			for _, km := range s.KOverM {
				for _, eps := range s.ErrorRates {
					for _, d := range s.Disciplines {
						p := Point{
							Tau: s.Tau, RhoPrime: rho, M: m, KOverM: km,
							Discipline:   d.String(),
							ErrorRate:    eps,
							Rates:        s.Mix.Scale(eps),
							Seed:         identitySeed(s.Seed, s.Tau, rho, m, km, d),
							Messages:     s.Messages,
							Replications: s.Replications,
						}
						if !p.Rates.Zero() {
							p.FaultSeed = rngutil.Mix64(
								identitySeed(faultBase, s.Tau, rho, m, km, d), sweepFaultTag)
						}
						pts = append(pts, p)
					}
				}
			}
		}
	}
	return pts, nil
}
