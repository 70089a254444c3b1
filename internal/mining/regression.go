// Package mining implements the attacker's data-mining toolkit from the
// paper's threat model: multivariate linear regression (the Table IV
// bidding attack), hierarchical agglomerative clustering with dendrograms
// (the Figs. 4–6 GPS attack), Apriori association-rule mining, and k-NN
// and Gaussian naive-Bayes prediction. These are the algorithms the paper argues
// fragmentation defeats; implementing them lets the benchmarks measure
// mining success on whole versus fragmented data.
package mining

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ErrTooFewSamples is returned when a model has more parameters than
// observations — exactly the failure mode fragmentation induces.
var ErrTooFewSamples = errors.New("mining: too few samples for model")

// RegressionModel is a fitted multivariate linear model
// y = Σ Coeffs[i]·x[i] + Intercept.
type RegressionModel struct {
	Coeffs    []float64
	Intercept float64
	// R2 is the coefficient of determination on the training data.
	R2 float64
	// N is the number of observations the model was fitted on.
	N int
}

// LinearRegression fits y ≈ X·β + β₀ by least squares. X is n×p with one
// row per observation. It mirrors the MATLAB "linear multiple regression"
// the paper's attacker (Hera) runs on the bidding history.
func LinearRegression(x [][]float64, y []float64) (*RegressionModel, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("%w: no observations", ErrTooFewSamples)
	}
	if len(y) != n {
		return nil, fmt.Errorf("mining: len(y)=%d but %d observation rows", len(y), n)
	}
	p := len(x[0])
	if n < p+1 {
		return nil, fmt.Errorf("%w: %d observations for %d parameters", ErrTooFewSamples, n, p+1)
	}
	// Design matrix with trailing 1s column for the intercept.
	a := linalg.NewMatrix(n, p+1)
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("mining: ragged observation row %d", i)
		}
		for j, v := range row {
			a.Set(i, j, v)
		}
		a.Set(i, p, 1)
	}
	beta, err := linalg.LeastSquares(a, y)
	if err != nil {
		return nil, fmt.Errorf("mining: regression solve: %w", err)
	}
	m := &RegressionModel{Coeffs: beta[:p], Intercept: beta[p], N: n}
	m.R2 = rSquared(a, beta, y)
	return m, nil
}

func rSquared(a *linalg.Matrix, beta, y []float64) float64 {
	pred, _ := a.MulVec(beta)
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i, v := range y {
		ssRes += (v - pred[i]) * (v - pred[i])
		ssTot += (v - mean) * (v - mean)
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}

// Predict evaluates the model on one observation.
func (m *RegressionModel) Predict(x []float64) (float64, error) {
	if len(x) != len(m.Coeffs) {
		return 0, fmt.Errorf("mining: predict with %d features, model has %d", len(x), len(m.Coeffs))
	}
	s := m.Intercept
	for i, c := range m.Coeffs {
		s += c * x[i]
	}
	return s, nil
}

// String renders the model the way the paper writes Hera's equations,
// e.g. "(1.4*x0 + 1.5*x1 + 3.1*x2) + 5436".
func (m *RegressionModel) String() string {
	s := "("
	for i, c := range m.Coeffs {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%.2f*x%d", c, i)
	}
	return s + fmt.Sprintf(") + %.0f", m.Intercept)
}

// CoefficientDistance returns the Euclidean distance between two models'
// parameter vectors (coefficients plus intercept), the benchmark's measure
// of how far a fragment's misleading fit lies from the true model.
func CoefficientDistance(a, b *RegressionModel) (float64, error) {
	if len(a.Coeffs) != len(b.Coeffs) {
		return 0, fmt.Errorf("mining: models have %d vs %d coefficients", len(a.Coeffs), len(b.Coeffs))
	}
	s := (a.Intercept - b.Intercept) * (a.Intercept - b.Intercept)
	for i := range a.Coeffs {
		d := a.Coeffs[i] - b.Coeffs[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// RelativeCoefficientError returns max_i |a_i − b_i| / max(|b_i|, 1) over
// coefficients and intercept, a scale-aware divergence measure.
func RelativeCoefficientError(fit, truth *RegressionModel) (float64, error) {
	if len(fit.Coeffs) != len(truth.Coeffs) {
		return 0, fmt.Errorf("mining: models have %d vs %d coefficients", len(fit.Coeffs), len(truth.Coeffs))
	}
	worst := math.Abs(fit.Intercept-truth.Intercept) / math.Max(math.Abs(truth.Intercept), 1)
	for i := range fit.Coeffs {
		e := math.Abs(fit.Coeffs[i]-truth.Coeffs[i]) / math.Max(math.Abs(truth.Coeffs[i]), 1)
		if e > worst {
			worst = e
		}
	}
	return worst, nil
}

// RMSE returns the root-mean-square prediction error of the model on a
// held-out set.
func (m *RegressionModel) RMSE(x [][]float64, y []float64) (float64, error) {
	if len(x) != len(y) || len(x) == 0 {
		return 0, fmt.Errorf("mining: RMSE needs equal non-empty x, y (got %d, %d)", len(x), len(y))
	}
	var s float64
	for i, row := range x {
		p, err := m.Predict(row)
		if err != nil {
			return 0, err
		}
		d := p - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(x))), nil
}
