// Package linalg provides the small dense-matrix linear algebra the
// data-mining toolkit needs: a row-major matrix, Householder QR and
// least-squares solves. It is deliberately minimal — just enough, written
// against the standard library only, to fit the multivariate regression
// behind the paper's Table IV leak.
package linalg

import (
	"errors"
	"fmt"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible matrix shapes")

// ErrSingular is returned when a solve encounters a (numerically) singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// NewMatrix allocates a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m × v for a column vector v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("%w: (%dx%d)×vec(%d)", ErrShape, m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out, nil
}
