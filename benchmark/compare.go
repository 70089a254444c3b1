package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// iqrShare is the distance between the first and third quartile of xs
// as a share of their median — the spread the driver computes, with the
// same quartile rule as Python's statistics.quantiles(xs, n=4). It needs
// four values to mean anything.
func iqrShare(xs []float64) (float64, bool) {
	if len(xs) < 4 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := rawMedian(s)
	if med == 0 {
		return 0, false
	}
	return (quart(3) - quart(1)) / med, true
}

func loadDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// values collects one end-to-end metric over a workload's runs; runs
// that could not report it (too few samples) are left out.
func values(runs []*runReport, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func errorShare(runs []*runReport) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareFiles prints, per workload and end-to-end metric, the baseline
// and candidate medians, their relative difference with its base, the
// bound, and a verdict:
//
//	worse       the candidate's median is worse by more than the bound
//	unresolved  it is not, but either side's run-to-run spread (IQR over
//	            median, needs >= 4 runs) is wider than the bound, or one
//	            side has no value
//	same        otherwise
//
// error_share is worse on any increase. The exit code is 1 when any row
// is worse.
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := loadDocument(basePath)
	if err == nil {
		var cand document
		if cand, err = loadDocument(candPath); err == nil {
			if compareDocs(base, cand, stdout) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareDocs(base, cand document, stdout io.Writer) (anyWorse bool) {
	var names []string
	for name := range base.Workloads {
		if _, ok := cand.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tdifference\tbound\tverdict")
	for _, name := range names {
		a, b := base.Workloads[name], cand.Workloads[name]
		for _, d := range endToEnd {
			if !d.gatedOn(name) {
				continue
			}
			va, vb := values(a, d.name), values(b, d.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.1f %%\tunresolved (no value: %d/%d and %d/%d runs report it)\n",
					name, d.name, d.bound*100, len(va), len(a), len(vb), len(b))
				continue
			}
			ma, mb := rawMedian(va), rawMedian(vb)
			rel := (mb - ma) / ma
			worsening := rel
			if d.better == "higher" {
				worsening = -rel
			}
			verdict := "same"
			sa, okA := iqrShare(va)
			sb, okB := iqrShare(vb)
			switch {
			case worsening > d.bound:
				verdict = "worse"
				anyWorse = true
			case okA && sa > d.bound, okB && sb > d.bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f %% / %.1f %%)", sa*100, sb*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s (n=%d)\t%.4g %s (n=%d)\t%+.1f %% of %.4g %s\t%.1f %%\t%s\n",
				name, d.name, ma, d.unit, len(va), mb, d.unit, len(vb), rel*100, ma, d.unit, d.bound*100, verdict)
		}
		ea, eb := errorShare(a), errorShare(b)
		verdict := "same"
		if eb > ea {
			verdict = "worse"
			anyWorse = true
		}
		fmt.Fprintf(tw, "%s\terror_share\t%.6f\t%.6f\t%+.6f\tany increase\t%s\n", name, ea, eb, eb-ea, verdict)
	}
	tw.Flush()
	return anyWorse
}
