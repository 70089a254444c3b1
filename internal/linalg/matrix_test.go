package linalg

import (
	"errors"
	"testing"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	// Row-major: (1, 2) is the last element.
	if m.Data[5] != 7 {
		t.Fatalf("Data = %v, want 7 at index 5", m.Data)
	}
}

func TestMulVec(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	got, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v, want [6 15]", got)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := &Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	c := a.Clone()
	c.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares backing storage")
	}
}
