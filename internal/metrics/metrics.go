// Package metrics provides the evaluation statistics the benchmarks use to
// quantify mining success and clustering agreement: Rand / adjusted Rand
// index, cluster-migration counts and Pearson correlation. These turn the
// paper's visual "entities moved between clusters" argument (Figs. 4–6)
// into numbers. It also provides the HDR-style latency histogram
// (histogram.go) the load harness uses for percentile reporting.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// ErrMismatch is returned when paired inputs disagree in length.
var ErrMismatch = errors.New("metrics: input length mismatch")

// RandIndex measures agreement between two clusterings of the same items
// in [0, 1]; 1 means identical partitions.
func RandIndex(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrMismatch, len(a), len(b))
	}
	n := len(a)
	if n < 2 {
		return 1, nil
	}
	agree := 0
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameA := a[i] == a[j]
			sameB := b[i] == b[j]
			if sameA == sameB {
				agree++
			}
			total++
		}
	}
	return float64(agree) / float64(total), nil
}

// AdjustedRandIndex corrects RandIndex for chance; 1 = identical,
// ~0 = random relabelling, negative = worse than chance.
func AdjustedRandIndex(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrMismatch, len(a), len(b))
	}
	n := len(a)
	if n < 2 {
		return 1, nil
	}
	// Contingency table.
	table := map[[2]int]int{}
	rowSum := map[int]int{}
	colSum := map[int]int{}
	for i := 0; i < n; i++ {
		table[[2]int{a[i], b[i]}]++
		rowSum[a[i]]++
		colSum[b[i]]++
	}
	choose2 := func(x int) float64 { return float64(x) * float64(x-1) / 2 }
	var sumIJ, sumI, sumJ float64
	for _, v := range table {
		sumIJ += choose2(v)
	}
	for _, v := range rowSum {
		sumI += choose2(v)
	}
	for _, v := range colSum {
		sumJ += choose2(v)
	}
	totalPairs := choose2(n)
	expected := sumI * sumJ / totalPairs
	maxIdx := (sumI + sumJ) / 2
	if maxIdx == expected {
		return 1, nil
	}
	return (sumIJ - expected) / (maxIdx - expected), nil
}

// ClusterMigrations counts items whose co-clustering relationships changed:
// the number of item pairs clustered together in a but apart in b, plus
// pairs apart in a but together in b. It is the paper's "many entities have
// moved from their original cluster" made exact.
func ClusterMigrations(a, b []int) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrMismatch, len(a), len(b))
	}
	moved := 0
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			if (a[i] == a[j]) != (b[i] == b[j]) {
				moved++
			}
		}
	}
	return moved, nil
}

// MigratedItems counts items involved in at least one changed pair — a
// per-entity version of ClusterMigrations closer to reading a dendrogram.
func MigratedItems(a, b []int) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrMismatch, len(a), len(b))
	}
	touched := make([]bool, len(a))
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			if (a[i] == a[j]) != (b[i] == b[j]) {
				touched[i] = true
				touched[j] = true
			}
		}
	}
	c := 0
	for _, t := range touched {
		if t {
			c++
		}
	}
	return c, nil
}

// Pearson computes the Pearson correlation coefficient of two equal-length
// series; experiments/gps.go correlates two dendrograms' cophenetic
// distances with it.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrMismatch, len(x), len(y))
	}
	n := float64(len(x))
	if n == 0 {
		return 0, fmt.Errorf("%w: empty series", ErrMismatch)
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
