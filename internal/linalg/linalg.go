// Package linalg provides the dense linear algebra required by the
// semi-Markov decision model: the value-determination step of Howard's
// policy iteration solves a linear system v + g·r = −loss + P·v with one
// relative value pinned to zero, which is an (n×n) solve.  A partial-pivot
// LU factorization over float64 is entirely sufficient at the problem sizes
// involved (states = time-constraint K in slot units, typically < 10³).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	data       []float64
}

// NewMatrix allocates a zero matrix; it panics on non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, data: make([]float64, rows*cols)}
}

// At returns element (i, j); it panics when out of range.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.Cols+j]
}

// Set assigns element (i, j); it panics when out of range.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.Cols+j] = v
}

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.Cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Clone returns an independent deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.data, m.data)
	return out
}

// LU is a partial-pivot LU factorization P·A = L·U.
type LU struct {
	lu    *Matrix
	pivot []int
}

// Factor computes the LU factorization of a square matrix.  It returns an
// error if the matrix is singular to working precision.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Factor requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivoting: find the largest magnitude in this column.
		maxRow, maxVal := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > maxVal {
				maxRow, maxVal = r, v
			}
		}
		if maxVal == 0 {
			return nil, fmt.Errorf("linalg: singular matrix (zero pivot at column %d)", col)
		}
		if maxRow != col {
			for j := 0; j < n; j++ {
				t := lu.At(col, j)
				lu.Set(col, j, lu.At(maxRow, j))
				lu.Set(maxRow, j, t)
			}
			pivot[col], pivot[maxRow] = pivot[maxRow], pivot[col]
		}
		piv := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / piv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Add(r, j, -f*lu.At(col, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// Solve returns x with A·x = b for the factored A.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve dimension mismatch (%d vs %d)", len(b), n)
	}
	// Apply permutation.
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution (L has implicit unit diagonal).
	for i := 1; i < n; i++ {
		sum := x[i]
		for j := 0; j < i; j++ {
			sum -= f.lu.At(i, j) * x[j]
		}
		x[i] = sum
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= f.lu.At(i, j) * x[j]
		}
		x[i] = sum / f.lu.At(i, i)
	}
	return x, nil
}

// Solve is a convenience one-shot A·x = b solve.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
