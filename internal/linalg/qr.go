package linalg

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization A = Q·R with A m×n, m ≥ n.
// Q is m×m orthogonal (stored implicitly via reflectors), R is m×n upper
// triangular. It supports least-squares solves min ‖Ax - b‖₂.
type QR struct {
	m, n int
	// qr holds R in its upper triangle and the Householder vectors below
	// the diagonal (in the LAPACK compact style).
	qr    *Matrix
	rdiag []float64
}

// QRDecompose factors a (copied) matrix. It requires Rows >= Cols.
func QRDecompose(a *Matrix) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("%w: QR requires rows(%d) >= cols(%d)", ErrShape, a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	qr := a.Clone()
	rdiag := make([]float64, n)

	for k := 0; k < n; k++ {
		// Compute the 2-norm of column k below the diagonal.
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm != 0 {
			if qr.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr.Set(i, k, qr.At(i, k)/nrm)
			}
			qr.Set(k, k, qr.At(k, k)+1)
			// Apply the reflector to remaining columns.
			for j := k + 1; j < n; j++ {
				s := 0.0
				for i := k; i < m; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < m; i++ {
					qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
				}
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{m: m, n: n, qr: qr, rdiag: rdiag}, nil
}

// FullRank reports whether R has no (numerically) zero diagonal entries.
func (d *QR) FullRank() bool {
	for _, v := range d.rdiag {
		if math.Abs(v) < 1e-12 {
			return false
		}
	}
	return true
}

// Solve returns the least-squares solution x of A·x ≈ b.
func (d *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != d.m {
		return nil, fmt.Errorf("%w: len(b)=%d, want %d", ErrShape, len(b), d.m)
	}
	if !d.FullRank() {
		return nil, ErrSingular
	}
	y := make([]float64, d.m)
	copy(y, b)

	// Apply Qᵀ to b.
	for k := 0; k < d.n; k++ {
		s := 0.0
		for i := k; i < d.m; i++ {
			s += d.qr.At(i, k) * y[i]
		}
		s = -s / d.qr.At(k, k)
		for i := k; i < d.m; i++ {
			y[i] += s * d.qr.At(i, k)
		}
	}
	// Back-substitute R·x = y.
	x := make([]float64, d.n)
	for k := d.n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < d.n; j++ {
			s -= d.qr.At(k, j) * x[j]
		}
		x[k] = s / d.rdiag[k]
	}
	return x, nil
}

// LeastSquares solves min ‖A·x − b‖₂ directly.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	d, err := QRDecompose(a)
	if err != nil {
		return nil, err
	}
	return d.Solve(b)
}

// SolveSquare solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A is not modified.
func SolveSquare(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: SolveSquare needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("%w: len(b)=%d, want %d", ErrShape, len(b), a.Rows)
	}
	return gaussSolve(a, b)
}

func gaussSolve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	m := a.Clone()
	y := make([]float64, n)
	copy(y, b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		p, maxv := k, math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m.At(i, k)); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv < 1e-14 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				vk, vp := m.At(k, j), m.At(p, j)
				m.Set(k, j, vp)
				m.Set(p, j, vk)
			}
			y[k], y[p] = y[p], y[k]
		}
		for i := k + 1; i < n; i++ {
			f := m.At(i, k) / m.At(k, k)
			if f == 0 {
				continue
			}
			for j := k; j < n; j++ {
				m.Set(i, j, m.At(i, j)-f*m.At(k, j))
			}
			y[i] -= f * y[k]
		}
	}
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= m.At(k, j) * x[j]
		}
		x[k] = s / m.At(k, k)
	}
	return x, nil
}
