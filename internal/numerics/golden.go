package numerics

// GoldenSection minimizes a unimodal f on [a, b] to the given x-tolerance
// and returns the minimizer.
func GoldenSection(f func(float64) float64, a, b, tol float64) float64 {
	if b < a {
		a, b = b, a
	}
	const invPhi = 0.6180339887498949 // 1/φ
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return (a + b) / 2
}
