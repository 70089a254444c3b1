package attack

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mining"
)

// PredictionResult is the outcome of the health-record prediction attack:
// the adversary trains a risk classifier on whatever patient rows it
// recovered and is scored on held-out patients — the paper's "likelihood
// of an individual getting a terminal illness" threat.
type PredictionResult struct {
	RowsRecovered int
	RowsSkipped   int
	// Accuracy on the held-out set; meaningful only when FitErr is nil.
	Accuracy float64
	FitErr   error
}

// HealthPredictionAttack parses patient records from the blobs, trains a
// Gaussian naive-Bayes classifier, and evaluates it on the held-out
// records.
func HealthPredictionAttack(blobs []Blob, holdout []dataset.HealthRecord) PredictionResult {
	var res PredictionResult
	var recs []dataset.HealthRecord
	for _, b := range blobs {
		rs, skipped := dataset.ParseHealthCSV(b.Data)
		recs = append(recs, rs...)
		res.RowsSkipped += skipped
	}
	res.RowsRecovered = len(recs)
	if len(recs) == 0 {
		res.FitErr = fmt.Errorf("attack: no patient rows recovered: %w", mining.ErrTooFewSamples)
		return res
	}
	x, y := dataset.HealthFeatures(recs)
	nb, err := mining.TrainGaussianNB(x, y)
	if err != nil {
		res.FitErr = err
		return res
	}
	if len(nb.Classes()) < 2 {
		res.FitErr = fmt.Errorf("attack: only one risk class visible: %w", mining.ErrTooFewSamples)
		return res
	}
	tx, ty := dataset.HealthFeatures(holdout)
	acc, err := nb.Accuracy(tx, ty)
	if err != nil {
		res.FitErr = err
		return res
	}
	res.Accuracy = acc
	return res
}

// HealthKNNAttack is HealthPredictionAttack with a k-nearest-neighbour
// classifier instead of naive Bayes — the non-parametric variant, which
// degrades differently under decoy poisoning (every decoy row is a
// potential false neighbour rather than a shift in class statistics).
func HealthKNNAttack(blobs []Blob, holdout []dataset.HealthRecord, k int) PredictionResult {
	var res PredictionResult
	var recs []dataset.HealthRecord
	for _, b := range blobs {
		rs, skipped := dataset.ParseHealthCSV(b.Data)
		recs = append(recs, rs...)
		res.RowsSkipped += skipped
	}
	res.RowsRecovered = len(recs)
	if len(recs) == 0 {
		res.FitErr = fmt.Errorf("attack: no patient rows recovered: %w", mining.ErrTooFewSamples)
		return res
	}
	x, y := dataset.HealthFeatures(recs)
	knn, err := mining.NewKNN(k, x, y)
	if err != nil {
		res.FitErr = err
		return res
	}
	tx, ty := dataset.HealthFeatures(holdout)
	acc, err := knn.Accuracy(tx, ty)
	if err != nil {
		res.FitErr = err
		return res
	}
	res.Accuracy = acc
	return res
}
