// Package experiments implements every table and figure of the paper's
// evaluation as a reproducible function: Table IV's regression attack on
// the Hercules bidding history, Figs. 4–6's GPS clustering dendrograms,
// the Fig. 1/2/3 architecture demonstrations, the §VIII-B distribution-
// time measurements, and the ablations DESIGN.md calls out. cmd/benchrunner
// prints them; bench_test.go times them.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// Table4Result reproduces the paper's §VII-A example: the full-data fit
// Hera obtains at a single provider, and the three divergent fits after
// Hercules splits his history across Titans, Spartans and Yagamis.
type Table4Result struct {
	Rows           []dataset.BidRecord
	FullModel      *mining.RegressionModel
	FragmentModels []*mining.RegressionModel
	// FragmentErrs[i] is the relative coefficient error of fragment i's
	// model versus the full-data model.
	FragmentErrs []float64
	// PairwiseDist is the mean coefficient distance between fragment
	// models — how much the misleading equations disagree.
	PairwiseDist float64
}

// Table4 runs the regression attack on the paper's exact 12-row table:
// full data, then the paper's three 4-row fragments.
func Table4() (*Table4Result, error) {
	rows := dataset.PaperTable4()
	res := &Table4Result{Rows: rows}
	x, y := dataset.Features(rows)
	full, err := mining.LinearRegression(x, y)
	if err != nil {
		return nil, fmt.Errorf("full-data regression: %w", err)
	}
	res.FullModel = full

	for start := 0; start < len(rows); start += 4 {
		fx, fy := dataset.Features(rows[start : start+4])
		m, err := mining.LinearRegression(fx, fy)
		if err != nil {
			return nil, fmt.Errorf("fragment %d regression: %w", start/4, err)
		}
		res.FragmentModels = append(res.FragmentModels, m)
		relErr, err := mining.RelativeCoefficientError(m, full)
		if err != nil {
			return nil, err
		}
		res.FragmentErrs = append(res.FragmentErrs, relErr)
	}
	n := 0
	for i := 0; i < len(res.FragmentModels); i++ {
		for j := i + 1; j < len(res.FragmentModels); j++ {
			d, err := mining.CoefficientDistance(res.FragmentModels[i], res.FragmentModels[j])
			if err != nil {
				return nil, err
			}
			res.PairwiseDist += d
			n++
		}
	}
	if n > 0 {
		res.PairwiseDist /= float64(n)
	}
	return res, nil
}

// FormatTable4 renders the experiment like the paper's narrative.
func FormatTable4(r *Table4Result) string {
	var b strings.Builder
	b.WriteString("Table IV — Hercules bidding history (12 rows)\n")
	fmt.Fprintf(&b, "%-5s %-8s %9s %10s %11s %9s\n", "Year", "Company", "Materials", "Production", "Maintenance", "Bid")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-5d %-8s %9.0f %10.0f %11.0f %9.0f\n",
			row.Year, row.Company, row.Materials, row.Production, row.Maintenance, row.Bid)
	}
	fmt.Fprintf(&b, "\nFull data (single provider, paper: (1.4*M + 1.5*P + 3.1*Mn) + 5436):\n  %v\n", r.FullModel)
	b.WriteString("\nPer-fragment fits (paper: three mutually misleading equations):\n")
	for i, m := range r.FragmentModels {
		fmt.Fprintf(&b, "  provider %d: %v   (rel. error vs full fit: %.2f)\n", i+1, m, r.FragmentErrs[i])
	}
	fmt.Fprintf(&b, "\nMean pairwise distance between fragment models: %.0f\n", r.PairwiseDist)
	return b.String()
}

// Table4SystemResult runs the same attack through the real system: a
// synthetic bidding history is uploaded to a 3-provider fleet via the
// distributor, and each provider's insider fits a model on its fragments.
type Table4SystemResult struct {
	RowsUploaded int
	Full         attack.BiddingResult
	PerProvider  map[string]attack.BiddingResult
	// TruthErrFull / worst-case fragment error vs the planted model.
	TruthErrFull    float64
	TruthErrFragMin float64
	TruthErrFragMax float64
}

// Table4System distributes n synthetic bidding rows over three providers
// and runs both the single-provider and per-insider attacks.
func Table4System(n int, seed int64) (*Table4SystemResult, error) {
	csvData, truth := biddingHistory(n, dataset.PaperBiddingModel(), seed)

	// Single-provider baseline.
	solo, err := fleetOf(provider.Info{Name: "Titans", PL: privacy.High, CL: 3})
	if err != nil {
		return nil, err
	}
	soloLab, err := runLab(solo, core.Config{StripeWidth: 1}, "hercules", "bids.csv", csvData, privacy.Public, core.UploadOptions{NoParity: true})
	if err != nil {
		return nil, err
	}
	_, soloBlobs, err := soloLab.insiders()
	if err != nil {
		return nil, err
	}

	// Distributed: three equally reputable providers, paper-style.
	tri, err := fleetOf(
		provider.Info{Name: "Titans", PL: privacy.High, CL: 1},
		provider.Info{Name: "Spartans", PL: privacy.High, CL: 1},
		provider.Info{Name: "Yagamis", PL: privacy.High, CL: 1},
	)
	if err != nil {
		return nil, err
	}
	policy := privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
		privacy.Public: 2 << 10, privacy.Low: 1 << 10, privacy.Moderate: 512, privacy.High: 512,
	}}
	triLab, err := runLab(tri, core.Config{ChunkPolicy: policy, StripeWidth: 3}, "hercules", "bids.csv", csvData, privacy.Moderate, core.UploadOptions{NoParity: true})
	if err != nil {
		return nil, err
	}
	_, triBlobs, err := triLab.insiders()
	if err != nil {
		return nil, err
	}

	res := &Table4SystemResult{
		RowsUploaded: n,
		Full:         attack.BiddingRegressionAttack(soloBlobs),
		PerProvider:  attack.PerProviderBiddingModels(triBlobs),
	}
	if res.Full.Model != nil {
		res.TruthErrFull, _ = mining.RelativeCoefficientError(res.Full.Model, truth)
	}
	first := true
	for _, r := range res.PerProvider {
		if r.Model == nil {
			continue
		}
		e, _ := mining.RelativeCoefficientError(r.Model, truth)
		if first || e < res.TruthErrFragMin {
			res.TruthErrFragMin = e
		}
		if first || e > res.TruthErrFragMax {
			res.TruthErrFragMax = e
		}
		first = false
	}
	return res, nil
}

// FormatTable4System renders the end-to-end attack, one line per insider
// in provider-name order.
func FormatTable4System(r *Table4SystemResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "end-to-end Table IV attack over the real system (%d rows)\n\n", r.RowsUploaded)
	fmt.Fprintf(&b, "single provider: rows=%d relErr vs planted model=%.3f\n", r.Full.RowsRecovered, r.TruthErrFull)
	if r.Full.Model != nil {
		fmt.Fprintf(&b, "  model: %v\n", r.Full.Model)
	}
	b.WriteString("three-provider split, per-insider fits:\n")
	names := make([]string, 0, len(r.PerProvider))
	for name := range r.PerProvider {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pr := r.PerProvider[name]
		if pr.Model == nil {
			fmt.Fprintf(&b, "  %-10s rows=%d  mining FAILED (%v)\n", name, pr.RowsRecovered, pr.FitErr)
			continue
		}
		fmt.Fprintf(&b, "  %-10s rows=%d  model: %v\n", name, pr.RowsRecovered, pr.Model)
	}
	fmt.Fprintf(&b, "fragment relErr range: [%.3f, %.3f] (whole-data: %.3f)\n",
		r.TruthErrFragMin, r.TruthErrFragMax, r.TruthErrFull)
	return b.String()
}
