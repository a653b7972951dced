package dist

import (
	"fmt"
	"math"

	"windowctl/internal/rngutil"
)

// Atomize converts a discrete law into an explicit Empirical atom list,
// truncating any infinite support once the remaining tail mass falls
// below tol (the tail is folded into the final atom so mass is
// conserved).  It supports the discrete laws of this package; continuous
// laws return an error.
func Atomize(d Distribution, tol float64) (*Empirical, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	switch v := d.(type) {
	case *Empirical:
		return v, nil
	case Deterministic:
		return NewEmpirical([]float64{v.Value}, []float64{1})
	case GeometricLattice:
		if v.Q == 0 {
			return NewEmpirical([]float64{0}, []float64{1})
		}
		var xs, ws []float64
		p := 1 - v.Q
		mass := 0.0
		for n := 0; ; n++ {
			w := p * math.Pow(v.Q, float64(n))
			xs = append(xs, float64(n)*v.Step)
			ws = append(ws, w)
			mass += w
			if 1-mass < tol {
				ws[len(ws)-1] += 1 - mass // fold the tail
				break
			}
			if n > 1<<20 {
				return nil, fmt.Errorf("dist: geometric lattice did not truncate")
			}
		}
		return NewEmpirical(xs, ws)
	case Shifted:
		base, err := Atomize(v.Base, tol)
		if err != nil {
			return nil, err
		}
		xs, ps := base.Support()
		for i := range xs {
			xs[i] += v.Offset
		}
		return NewEmpirical(xs, ps)
	default:
		return nil, fmt.Errorf("dist: cannot atomize %T", d)
	}
}

// AtomicSum is the law of D + Y for independent D (discrete, given by its
// atoms) and Y (any law).  It is how the protocol's service time is
// composed when message lengths are random: a discrete number of wasted
// slots plus a general transmission time.
type AtomicSum struct {
	d *Empirical
	y Distribution
}

// NewAtomicSum builds the sum law; both components are required.
func NewAtomicSum(d *Empirical, y Distribution) (*AtomicSum, error) {
	if d == nil || y == nil {
		return nil, fmt.Errorf("dist: AtomicSum needs both components")
	}
	return &AtomicSum{d: d, y: y}, nil
}

// Mean implements Distribution.
func (s *AtomicSum) Mean() float64 { return s.d.Mean() + s.y.Mean() }

// CDF implements Distribution: P(D+Y <= t) = Σ_i p_i F_Y(t − x_i).
func (s *AtomicSum) CDF(t float64) float64 {
	xs, ps := s.d.Support()
	sum := 0.0
	for i, x := range xs {
		if t < x {
			break // atoms ascend; later terms are zero
		}
		sum += ps[i] * s.y.CDF(t-x)
	}
	return sum
}

// LST implements Distribution.
func (s *AtomicSum) LST(u complex128) complex128 { return s.d.LST(u) * s.y.LST(u) }

// Sample implements Distribution.
func (s *AtomicSum) Sample(r *rngutil.Stream) float64 {
	return s.d.Sample(r) + s.y.Sample(r)
}

// String implements Distribution.
func (s *AtomicSum) String() string { return fmt.Sprintf("(%v + %v)", s.d, s.y) }
