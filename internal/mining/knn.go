package mining

import (
	"fmt"
	"math"
	"sort"
)

// KNNClassifier is a k-nearest-neighbour classifier, the repository's
// stand-in for the paper's "prediction algorithms" that "may reveal
// misleading results as they lack numbers of observations" under
// fragmentation.
type KNNClassifier struct {
	k      int
	points [][]float64
	labels []string
}

// NewKNN builds a classifier over the training set.
func NewKNN(k int, points [][]float64, labels []string) (*KNNClassifier, error) {
	if k < 1 {
		return nil, fmt.Errorf("mining: k=%d must be >= 1", k)
	}
	if len(points) == 0 {
		return nil, errNoObservations
	}
	if len(points) != len(labels) {
		return nil, fmt.Errorf("mining: %d points but %d labels", len(points), len(labels))
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("mining: point %d has %d dims, want %d", i, len(p), dim)
		}
	}
	return &KNNClassifier{k: k, points: points, labels: labels}, nil
}

// Predict returns the majority label among the k nearest neighbours; ties
// break toward the nearer neighbour set (then lexicographically for
// determinism).
func (c *KNNClassifier) Predict(x []float64) (string, error) {
	if len(x) != len(c.points[0]) {
		return "", fmt.Errorf("mining: query has %d dims, want %d", len(x), len(c.points[0]))
	}
	type nd struct {
		d float64
		i int
	}
	ds := make([]nd, len(c.points))
	for i, p := range c.points {
		ds[i] = nd{d: math.Sqrt(sqDist(x, p)), i: i}
	}
	sort.Slice(ds, func(a, b int) bool {
		if ds[a].d != ds[b].d {
			return ds[a].d < ds[b].d
		}
		return ds[a].i < ds[b].i
	})
	k := c.k
	if k > len(ds) {
		k = len(ds)
	}
	votes := map[string]int{}
	nearest := map[string]float64{}
	for _, e := range ds[:k] {
		lbl := c.labels[e.i]
		votes[lbl]++
		if _, ok := nearest[lbl]; !ok {
			nearest[lbl] = e.d
		}
	}
	best, bestVotes, bestDist := "", -1, math.Inf(1)
	keys := make([]string, 0, len(votes))
	for l := range votes {
		keys = append(keys, l)
	}
	sort.Strings(keys)
	for _, l := range keys {
		v := votes[l]
		if v > bestVotes || (v == bestVotes && nearest[l] < bestDist) {
			best, bestVotes, bestDist = l, v, nearest[l]
		}
	}
	return best, nil
}

// Accuracy scores the classifier on a labelled test set.
func (c *KNNClassifier) Accuracy(points [][]float64, labels []string) (float64, error) {
	if len(points) != len(labels) || len(points) == 0 {
		return 0, fmt.Errorf("mining: accuracy needs equal non-empty sets (got %d, %d)", len(points), len(labels))
	}
	correct := 0
	for i, p := range points {
		got, err := c.Predict(p)
		if err != nil {
			return 0, err
		}
		if got == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(points)), nil
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
