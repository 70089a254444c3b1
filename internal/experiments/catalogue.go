package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dataset"
)

// Report is one entry of the evaluation's catalogue: the id it is asked
// for by, the other ids that name the same report, and Run, which runs
// it at the parameters of the paper's figures and returns its text.
// verbose adds the GPS figures' full dendrograms.
type Report struct {
	ID      string
	Aliases []string
	Run     func(verbose bool) (string, error)
}

// Catalogue is every report of the evaluation, in the order
// cmd/benchrunner prints them; EXPERIMENTS.md has a section for each.
var Catalogue = []Report{
	// Tables I–III and the Fig. 3 walkthrough share the scenario.
	{ID: "tables", Aliases: []string{"table1", "table2", "table3", "fig3"}, Run: func(bool) (string, error) {
		return Figure3Report()
	}},
	{ID: "table4", Run: func(bool) (string, error) {
		return text("", FormatTable4)(Table4())
	}},
	{ID: "table4sys", Run: func(bool) (string, error) {
		return text("", FormatTable4System)(Table4System(300, 1))
	}},
	{ID: "fig1", Run: func(bool) (string, error) {
		return text("", func(r *DistributionTimeResult) string {
			return fmt.Sprintf("Fig. 1 single-distributor data path: %d bytes -> %d chunks + %d parity over %d providers\n", r.FileBytes, r.Chunks, r.Parity, r.Providers) +
				fmt.Sprintf("distribution wall time: %v, consistency (read-back): %v\n", r.WallTime, r.ReadBackOK)
		})(DistributionTime(256<<10, 8, 5, 1))
	}},
	{ID: "fig2", Run: func(bool) (string, error) {
		return text("", func(r *MultiDistributorResult) string {
			return fmt.Sprintf("Fig. 2 extended architecture: %d distributors\n", r.Distributors) +
				fmt.Sprintf("  upload via primary:            %v\n", r.UploadOK) +
				fmt.Sprintf("  retrieval via primary:         %v\n", r.PrimaryRetrievalOK) +
				fmt.Sprintf("  retrieval with primary down:   %v (served by secondary)\n", r.FailoverRetrievalOK) +
				fmt.Sprintf("  upload refused by a secondary: %v\n", r.UploadBlockedOK)
		})(MultiDistributor(3, 6, 1))
	}},
	{ID: "fig4", Aliases: []string{"fig5", "fig6"}, Run: func(verbose bool) (string, error) {
		r, err := GPSFigures(dataset.DefaultGPSConfig(), 500)
		if err != nil || !verbose {
			return text("", FormatGPSFigures)(r, err)
		}
		var b strings.Builder
		b.WriteString(FormatGPSFigures(r))
		for i, fig := range append([]GPSFigure{r.Full}, r.Fragments...) {
			fmt.Fprintf(&b, "\nFig. %d dendrogram:\n%s", 4+i, GPSDendrogramASCII(&fig))
		}
		return b.String(), nil
	}},
	{ID: "dist", Run: func(bool) (string, error) {
		return text("§VIII-B distribution time sweep:\n", FormatDistributionSweep)(DistributionSweep(
			[]int{32 << 10, 128 << 10, 512 << 10, 2 << 20}, []int{3, 6, 12}))
	}},
	{ID: "chunksize", Run: func(bool) (string, error) {
		return text("chunk size vs best-insider attack quality (§VII-C):\n", FormatChunkSizeAblation)(
			AblationChunkSize([]int{16 << 10, 8 << 10, 2 << 10, 512, 128}, 400, 4, 1))
	}},
	{ID: "mislead", Run: func(bool) (string, error) {
		return text("misleading decoy records vs attack quality and overhead (§VII-D):\n", FormatMisleadAblation)(
			AblationMislead([]int{0, 25, 50, 100, 200}, 200, 1))
	}},
	{ID: "raidcmp", Run: func(bool) (string, error) {
		return text("RAID level comparison (availability & storage, §III-B):\n", FormatRaidAblation)(
			AblationRAID(3, 0.1, 1, 6, 1))
	}},
	{ID: "compromise", Run: func(bool) (string, error) {
		return text("outside attacker: compromised providers vs mining success:\n", FormatCompromise)(
			AblationCompromise(5, 400, 1))
	}},
	{ID: "encfrag", Run: func(bool) (string, error) {
		model, err := text("encryption vs fragmentation query cost, analytic model (§VII-E):\n", FormatEncVsFrag)(
			EncryptionVsFragmentation([]int{256 << 10, 1 << 20, 4 << 20, 16 << 20}, 64<<10, 4096))
		if err != nil {
			return "", err
		}
		return text(model+"\nmeasured end-to-end (real provider byte counters):\n", FormatEncVsFragLive)(
			EncryptionVsFragmentationLive([]int{256 << 10, 1 << 20, 4 << 20}, 4096, 1))
	}},
	{ID: "baskets", Run: func(bool) (string, error) {
		return text("association-rule recovery: whole log vs per-insider fragments (§II-B):\n", FormatBasketExperiment)(
			BasketRuleExperiment(dataset.DefaultBasketConfig(), 4, 0.05, 0.7))
	}},
	{ID: "health", Run: func(bool) (string, error) {
		points, baseline, err := HealthPredictionExperiment(dataset.DefaultHealthConfig(), 4)
		return text("risk-prediction attack: whole cohort vs per-insider fragments:\n", func(points []HealthPoint) string {
			return FormatHealthExperiment(points, baseline)
		})(points, err)
	}},
	{ID: "cost", Run: func(bool) (string, error) {
		return text("security/cost trade-off billing (§IV-B):\n", FormatCost)(CostTradeoff(3, 128<<10, 1))
	}},
}

// text renders an experiment's result under a heading, or passes its
// error on.
func text[R any](heading string, format func(R) string) func(R, error) (string, error) {
	return func(r R, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return heading + format(r), nil
	}
}

// Lookup finds the report an id or one of its aliases names.
func Lookup(id string) (Report, bool) {
	for _, r := range Catalogue {
		if r.ID == id || slices.Contains(r.Aliases, id) {
			return r, true
		}
	}
	return Report{}, false
}
