package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandIndexIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2}
	ri, err := RandIndex(a, a)
	if err != nil || ri != 1 {
		t.Fatalf("ri=%v err=%v", ri, err)
	}
}

func TestRandIndexRelabelInvariant(t *testing.T) {
	a := []int{0, 0, 1, 1}
	b := []int{5, 5, 9, 9} // same partition, different labels
	ri, err := RandIndex(a, b)
	if err != nil || ri != 1 {
		t.Fatalf("ri=%v err=%v", ri, err)
	}
}

func TestRandIndexDisagreement(t *testing.T) {
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 0, 1}
	ri, _ := RandIndex(a, b)
	// pairs: (01)s-d,(02)d-s,(03)d-d,(12)d-d,(13)d-s,(23)s-d → agree 2/6
	if math.Abs(ri-2.0/6.0) > 1e-12 {
		t.Fatalf("ri = %v, want 1/3", ri)
	}
}

func TestRandIndexErrors(t *testing.T) {
	if _, err := RandIndex([]int{1}, []int{1, 2}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
	ri, err := RandIndex([]int{3}, []int{8})
	if err != nil || ri != 1 {
		t.Fatalf("singleton ri=%v err=%v", ri, err)
	}
}

func TestAdjustedRandIndexIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	ari, err := AdjustedRandIndex(a, a)
	if err != nil || math.Abs(ari-1) > 1e-12 {
		t.Fatalf("ari=%v err=%v", ari, err)
	}
}

func TestAdjustedRandIndexRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 400
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(4)
		b[i] = rng.Intn(4)
	}
	ari, err := AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ari) > 0.05 {
		t.Fatalf("ari = %v, want ~0 for independent labels", ari)
	}
}

func TestAdjustedRandIndexMismatch(t *testing.T) {
	if _, err := AdjustedRandIndex([]int{1}, []int{1, 2}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestClusterMigrations(t *testing.T) {
	a := []int{0, 0, 1, 1}
	got, err := ClusterMigrations(a, a)
	if err != nil || got != 0 {
		t.Fatalf("got=%d err=%v", got, err)
	}
	b := []int{0, 1, 1, 1} // item 1 moved from cluster with 0 to cluster with 2,3
	got, _ = ClusterMigrations(a, b)
	// changed pairs: (0,1) together→apart, (1,2) apart→together, (1,3) apart→together = 3
	if got != 3 {
		t.Fatalf("migrations = %d, want 3", got)
	}
	if _, err := ClusterMigrations([]int{1}, []int{1, 2}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestMigratedItems(t *testing.T) {
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 1, 1}
	got, err := MigratedItems(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// items 0,1,2,3 all touch a changed pair
	if got != 4 {
		t.Fatalf("migrated items = %d, want 4", got)
	}
	same, _ := MigratedItems(a, a)
	if same != 0 {
		t.Fatalf("identical partitions migrated %d", same)
	}
	if _, err := MigratedItems([]int{1}, []int{}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("r=%v err=%v", r, err)
	}
	yneg := []float64{8, 6, 4, 2}
	r, _ = Pearson(x, yneg)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v, want -1", r)
	}
	flat := []float64{5, 5, 5, 5}
	r, _ = Pearson(x, flat)
	if r != 0 {
		t.Fatalf("r = %v, want 0 for zero variance", r)
	}
	if _, err := Pearson(x, []float64{1}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Pearson(nil, nil); !errors.Is(err, ErrMismatch) {
		t.Fatalf("empty err = %v", err)
	}
}

// Property: RandIndex is symmetric and within [0,1]; ARI ≤ 1.
func TestIndicesBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
			b[i] = rng.Intn(4)
		}
		r1, e1 := RandIndex(a, b)
		r2, e2 := RandIndex(b, a)
		if e1 != nil || e2 != nil || r1 != r2 || r1 < 0 || r1 > 1 {
			return false
		}
		ari, err := AdjustedRandIndex(a, b)
		if err != nil || ari > 1+1e-12 {
			return false
		}
		ariBA, _ := AdjustedRandIndex(b, a)
		return math.Abs(ari-ariBA) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ClusterMigrations(a,b) = (1 - RandIndex) * nPairs.
func TestMigrationsRandIndexRelationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(3)
			b[i] = rng.Intn(3)
		}
		ri, _ := RandIndex(a, b)
		mig, _ := ClusterMigrations(a, b)
		pairs := n * (n - 1) / 2
		return math.Abs(float64(mig)-(1-ri)*float64(pairs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
