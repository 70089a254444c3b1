package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/privacy"
)

// HealthPoint reports prediction-attack quality for one attacker scope.
type HealthPoint struct {
	Scope         string
	RowsRecovered int
	Accuracy      float64
	Failed        bool
}

// HealthPredictionExperiment uploads a synthetic patient cohort once to a
// single provider and once fragmented across nProviders, then scores the
// risk-prediction attack for the whole-data adversary and each insider —
// the paper's health-privacy motivation made measurable.
func HealthPredictionExperiment(cfg dataset.HealthConfig, nProviders int) ([]HealthPoint, float64, error) {
	recs, err := dataset.GenerateHealthRecords(cfg)
	if err != nil {
		return nil, 0, err
	}
	// Train/holdout split: the cloud stores the training records; the
	// attack is scored on the held-out patients.
	split := len(recs) * 3 / 4
	train, holdout := recs[:split], recs[split:]
	body := dataset.HealthCSV(train)

	// Majority-class baseline accuracy: an attacker with no data at all.
	low := 0
	for _, r := range holdout {
		if r.Risk == "low" {
			low++
		}
	}
	baseline := float64(low) / float64(len(holdout))
	if baseline < 0.5 {
		baseline = 1 - baseline
	}

	score := func(scope string, blobs []attack.Blob) HealthPoint {
		res := attack.HealthPredictionAttack(blobs, holdout)
		p := HealthPoint{Scope: scope, RowsRecovered: res.RowsRecovered, Accuracy: res.Accuracy}
		if res.FitErr != nil {
			p.Failed = true
		}
		return p
	}

	out, err := wholeVersusInsiders(body, nProviders, "hospital", "patients.csv", privacy.High, score)
	if err != nil {
		return nil, 0, err
	}
	return out, baseline, nil
}

// FormatHealthExperiment renders the prediction-attack comparison.
func FormatHealthExperiment(points []HealthPoint, baseline float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "majority-class baseline accuracy: %.3f\n", baseline)
	fmt.Fprintf(&b, "%-8s %10s %12s %8s\n", "scope", "rows", "accuracy", "failed")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %10d %12s %8v\n", p.Scope, p.RowsRecovered, scoreCell(p.Accuracy, p.Failed), p.Failed)
	}
	return b.String()
}
