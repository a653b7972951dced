// Package rngutil provides deterministic, splittable pseudo-random number
// streams for simulation.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every simulation run is driven by an explicit 64-bit seed, and independent
// model components (stations, arrival processes, replications) each draw
// from their own substream so that changing the amount of randomness
// consumed by one component does not perturb any other component.  The
// substream spawning scheme follows the SplitMix64 construction of Steele,
// Lea and Flood, which is also the stream-seeding function recommended by
// the xoshiro authors.
//
// The generator itself is xoshiro256**, a small, fast all-purpose generator
// with a 2^256-1 period and no known linear artifacts in its output; it is
// the same family used by the Go runtime for its fallback generator.  Only
// the Go standard library is used.
package rngutil

import (
	"fmt"
	"math"
)

// splitmix64 advances the given state and returns the next SplitMix64
// output.  It is used both to seed xoshiro state from a single word and to
// derive child stream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes any number of 64-bit words into a single well-mixed seed
// word by folding each through SplitMix64.  It is the recommended way to
// derive a per-work-item seed from a base seed plus the item's identity
// (panel parameters, constraint index, protocol, ...): unlike XOR-ing the
// raw words together, every input bit avalanches across the whole output,
// so items whose identities differ in only a low bit still get
// uncorrelated streams.
func Mix64(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		sm := h ^ w
		h = splitmix64(&sm)
	}
	return h
}

// Stream is a deterministic pseudo-random stream.  It is not safe for
// concurrent use; give each goroutine its own Stream (see Spawn).
type Stream struct {
	s    [4]uint64
	seed uint64 // original seed, for diagnostics
	next uint64 // child counter for Spawn
}

// New returns a Stream seeded from a single 64-bit value.  Distinct seeds
// yield statistically independent streams.
//
// An all-zero state is the single forbidden xoshiro state; SplitMix64
// cannot produce four consecutive zeros from any seed, but Seeded guards
// anyway.
func New(seed uint64) *Stream {
	st := Seeded(seed)
	return &st
}

// Clone returns an independent replica at the stream's current position:
// the clone and the original produce the same future draws.  This supports
// the protocol's common-randomness policies, where every station holds a
// replica of one agreed pseudo-random sequence.
func (r *Stream) Clone() *Stream {
	cp := *r
	return &cp
}

// String implements fmt.Stringer for diagnostics.
func (r *Stream) String() string {
	return fmt.Sprintf("rngutil.Stream(seed=%#x)", r.seed)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Spawn returns a new Stream that is statistically independent of the
// parent and of every other spawned child.  Children are derived from the
// parent's seed and a child counter, not from the parent's state, so the
// identity of child k does not depend on how much randomness the parent
// has consumed.
func (r *Stream) Spawn() *Stream {
	r.next++
	return New(ChildSeed(r.seed, r.next))
}

// ChildSeed returns the seed of the k-th (1-based) child a Stream seeded
// with parent would produce via Spawn.  Because child identity is a pure
// function of (parent seed, child index), work sharded across any number
// of workers can derive each child stream directly — the million-station
// engine seeds its struct-of-arrays station state this way, bit-identical
// at any worker count.  ChildSeed(parent, k) == the seed of the k-th
// New(parent).Spawn() result; the tests pin the equivalence.
func ChildSeed(parent uint64, k uint64) uint64 {
	// Mix seed and counter through SplitMix64 twice for avalanche.
	sm := parent ^ (k * 0xd1342543de82ef95)
	return splitmix64(&sm)
}

// Seeded returns a Stream by value, seeded exactly like New.  It exists
// for struct-of-arrays state that stores millions of streams in one flat
// slice: `streams[i] = rngutil.Seeded(seed)` initializes in place with no
// per-stream heap allocation.
func Seeded(seed uint64) Stream {
	var st Stream
	st.seed = seed
	sm := seed
	for i := range st.s {
		st.s[i] = splitmix64(&sm)
	}
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in the open interval (0, 1); it never
// returns exactly 0, which makes it safe as the argument of math.Log.
func (r *Stream) Float64Open() float64 {
	for {
		if v := r.Float64(); v > 0 {
			return v
		}
	}
}

// Intn returns a uniform value in [0, n).  It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rngutil: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) without modulo bias,
// using Lemire's multiply-shift rejection method.
func (r *Stream) boundedUint64(bound uint64) uint64 {
	if bound == 0 {
		panic("rngutil: zero bound")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid1 := t & mask
	c1 := t >> 32
	t = aLo*bHi + mid1
	mid2 := t & mask
	c2 := t >> 32
	hi = aHi*bHi + c1 + c2
	lo |= mid2 << 32
	return hi, lo
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate).  It panics if rate <= 0.
func (r *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rngutil: Exp with non-positive rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Bernoulli returns true with probability p.
func (r *Stream) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials; support {0, 1, 2, ...}, mean (1-p)/p.  It panics if
// p is not in (0, 1].
func (r *Stream) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rngutil: Geometric with p outside (0,1]")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(ln U / ln(1-p)).
	u := r.Float64Open()
	return int(math.Floor(math.Log(u) / math.Log1p(-p)))
}

// Poisson returns a Poisson-distributed value with the given mean.  For
// small means it uses Knuth multiplication; for large means it uses the
// normal approximation with continuity correction (adequate for the
// workload generators here, which use it only for sanity tooling).
func (r *Stream) Poisson(mean float64) int {
	return r.PoissonExp(mean, math.Exp(-mean))
}

// PoissonExp is Poisson with exp(−mean) supplied by the caller, for loops
// that draw again and again at one mean and can keep the exponential
// instead of recomputing it per draw.  expNegMean must equal
// math.Exp(-mean); then the draws are identical to Poisson's.  It is read
// only on the small-mean path (mean < 30).
func (r *Stream) PoissonExp(mean, expNegMean float64) int {
	if mean < 0 {
		panic("rngutil: Poisson with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		k := 0
		p := 1.0
		for {
			p *= r.Float64Open()
			if p <= expNegMean {
				return k
			}
			k++
		}
	}
	// Normal approximation for large means.
	for {
		v := mean + math.Sqrt(mean)*r.Normal()
		if v >= 0 {
			return int(v + 0.5)
		}
	}
}

// Normal returns a standard normal value using the Marsaglia polar method.
func (r *Stream) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
