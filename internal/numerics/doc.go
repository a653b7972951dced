// Package numerics supplies the numerical machinery that the 1983 paper's
// authors had to hand-roll and that Go's standard library does not provide:
// uniform-grid function representation with trapezoidal prefix integrals,
// FFT convolution (for the i-fold convolutions β⁽ⁱ⁾ in eq. 4.7 and the
// Beneš series), golden-section minimization (for the element-(2) window
// content), and the busy-period fixed point and Euler inversion of Laplace
// transforms (for the LCFS baseline's waiting-time law).  Everything is
// pure, allocation-aware Go with no external dependencies.
package numerics
