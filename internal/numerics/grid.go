package numerics

import (
	"fmt"
)

// Grid is a real function tabulated on the uniform grid {0, Step, 2·Step,
// ..., (len(Y)-1)·Step}.  It is the common currency between the residual
// service densities and their convolutions.
type Grid struct {
	Step float64   // spacing between samples; > 0
	Y    []float64 // samples, Y[i] = f(i*Step)
}

// NewGrid allocates a zero grid with n samples at the given spacing.  It
// panics if n <= 0 or step <= 0.
func NewGrid(step float64, n int) *Grid {
	if n <= 0 || step <= 0 {
		panic(fmt.Sprintf("numerics: invalid grid (step=%v, n=%d)", step, n))
	}
	return &Grid{Step: step, Y: make([]float64, n)}
}

// Tabulate samples f on [0, (n-1)·step].
func Tabulate(f func(float64) float64, step float64, n int) *Grid {
	g := NewGrid(step, n)
	for i := range g.Y {
		g.Y[i] = f(float64(i) * step)
	}
	return g
}

// Clone returns an independent deep copy.
func (g *Grid) Clone() *Grid {
	return &Grid{Step: g.Step, Y: append([]float64(nil), g.Y...)}
}

// IntegralTo returns the trapezoidal integral over [0, x], clamping x to
// the tabulated range.  Fractional final intervals are handled by linear
// interpolation of the integrand.
func (g *Grid) IntegralTo(x float64) float64 {
	if x <= 0 {
		return 0
	}
	maxX := float64(len(g.Y)-1) * g.Step
	if x > maxX {
		x = maxX
	}
	t := x / g.Step
	i := int(t)
	sum := 0.0
	for j := 0; j < i; j++ {
		sum += (g.Y[j] + g.Y[j+1]) / 2 * g.Step
	}
	frac := t - float64(i)
	if frac > 0 && i < len(g.Y)-1 {
		yEnd := g.Y[i]*(1-frac) + g.Y[i+1]*frac
		sum += (g.Y[i] + yEnd) / 2 * (frac * g.Step)
	}
	return sum
}
