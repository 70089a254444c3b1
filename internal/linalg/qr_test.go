package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRShapeError(t *testing.T) {
	if _, err := QRDecompose(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestQRExactSolve(t *testing.T) {
	// x + 2y = 5; 3x + 4y = 11  →  x = 1, y = 2
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	x, err := LeastSquares(a, []float64{5, 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("x = %v, want [1 2]", x)
	}
}

func TestQROverdeterminedRecoversPlantedModel(t *testing.T) {
	// y = 2a - 3b + 0.5 with no noise: least squares must recover exactly.
	rng := rand.New(rand.NewSource(7))
	n := 50
	a := NewMatrix(n, 3)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		av, bv := rng.NormFloat64(), rng.NormFloat64()
		a.Set(i, 0, av)
		a.Set(i, 1, bv)
		a.Set(i, 2, 1)
		b[i] = 2*av - 3*bv + 0.5
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -3, 0.5}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestQRSingular(t *testing.T) {
	// Two identical columns → rank deficient.
	a := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 1, 2, 2, 3, 3}}
	if _, err := LeastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestQRSolveLengthMismatch(t *testing.T) {
	a := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 0, 0, 1, 1, 1}}
	d, err := QRDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Solve([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestGaussSolveSquare(t *testing.T) {
	a := &Matrix{Rows: 3, Cols: 3, Data: []float64{2, 1, 1, 1, 3, 2, 1, 0, 0}}
	x, err := SolveSquare(a, []float64{7, 13, 1}) // solution (1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveSquareErrors(t *testing.T) {
	if _, err := SolveSquare(NewMatrix(2, 3), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square: err = %v, want ErrShape", err)
	}
	if _, err := SolveSquare(NewMatrix(2, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("bad b: err = %v, want ErrShape", err)
	}
	sing := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 4}}
	if _, err := SolveSquare(sing, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular: err = %v, want ErrSingular", err)
	}
}

// Property: for random well-conditioned square systems, Gauss and QR agree.
func TestGaussVsQRProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance keeps the system well-conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)*2)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xg, err1 := SolveSquare(a, b)
		xq, err2 := LeastSquares(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range xg {
			if math.Abs(xg[i]-xq[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: least-squares residual is orthogonal to the column space
// (Aᵀ(Ax − b) ≈ 0).
func TestLeastSquaresNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 8 + rng.Intn(8)
		n := 2 + rng.Intn(4)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return errors.Is(err, ErrSingular) // acceptable for random degenerate draws
		}
		ax, _ := a.MulVec(x)
		res := make([]float64, m)
		for i := range res {
			res[i] = ax[i] - b[i]
		}
		// (Aᵀr)_j is column j of A dotted with r.
		for j := 0; j < n; j++ {
			s := 0.0
			for i := range res {
				s += a.At(i, j) * res[i]
			}
			if math.Abs(s) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
