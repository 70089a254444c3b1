// Command benchrunner regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout. Each experiment id
// maps to a section of EXPERIMENTS.md.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp table4
//	benchrunner -exp fig4 -verbose
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/provider"
)

var experimentsOrder = []string{
	"tables", "table4", "table4sys",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"dist", "chunksize", "mislead", "raidcmp", "compromise", "encfrag", "baskets", "health", "cost",
}

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(experimentsOrder, "|")+"|all")
	verbose := flag.Bool("verbose", false, "print full dendrograms for the GPS figures")
	flag.Parse()

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentsOrder
	}
	for _, id := range ids {
		fmt.Printf("==== experiment %s ====\n", id)
		if err := run(id, *verbose); err != nil {
			log.Fatalf("benchrunner %s: %v", id, err)
		}
		fmt.Println()
	}
}

func run(id string, verbose bool) error {
	switch id {
	case "tables", "table1", "table2", "table3", "fig3":
		// Tables I–III and the Fig. 3 walkthrough share the scenario.
		out, err := experiments.Figure3Report()
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "table4":
		r, err := experiments.Table4()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable4(r))
	case "table4sys":
		r, err := experiments.Table4System(300, 1)
		if err != nil {
			return err
		}
		fmt.Printf("end-to-end Table IV attack over the real system (%d rows)\n\n", r.RowsUploaded)
		fmt.Printf("single provider: rows=%d relErr vs planted model=%.3f\n", r.Full.RowsRecovered, r.TruthErrFull)
		if r.Full.Model != nil {
			fmt.Printf("  model: %v\n", r.Full.Model)
		}
		fmt.Println("three-provider split, per-insider fits:")
		for name, pr := range r.PerProvider {
			if pr.Model == nil {
				fmt.Printf("  %-10s rows=%d  mining FAILED (%v)\n", name, pr.RowsRecovered, pr.FitErr)
				continue
			}
			fmt.Printf("  %-10s rows=%d  model: %v\n", name, pr.RowsRecovered, pr.Model)
		}
		fmt.Printf("fragment relErr range: [%.3f, %.3f] (whole-data: %.3f)\n",
			r.TruthErrFragMin, r.TruthErrFragMax, r.TruthErrFull)
	case "fig1":
		r, err := experiments.DistributionTime(256<<10, 8, 5, provider.LatencyModel{}, 1)
		if err != nil {
			return err
		}
		fmt.Printf("Fig. 1 single-distributor data path: %d bytes -> %d chunks + %d parity over %d providers\n",
			r.FileBytes, r.Chunks, r.Parity, r.Providers)
		fmt.Printf("distribution wall time: %v, consistency (read-back): %v\n", r.WallTime, r.ReadBackOK)
	case "fig2":
		r, err := experiments.MultiDistributor(3, 6, 1)
		if err != nil {
			return err
		}
		fmt.Printf("Fig. 2 extended architecture: %d distributors\n", r.Distributors)
		fmt.Printf("  upload via primary:            %v\n", r.UploadOK)
		fmt.Printf("  retrieval via primary:         %v\n", r.PrimaryRetrievalOK)
		fmt.Printf("  retrieval with primary down:   %v (served by secondary)\n", r.FailoverRetrievalOK)
		fmt.Printf("  upload refused by a secondary: %v\n", r.UploadBlockedOK)
	case "fig4", "fig5", "fig6":
		cfg := dataset.DefaultGPSConfig()
		r, err := experiments.GPSFigures(cfg, 500)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatGPSFigures(r))
		if verbose {
			fmt.Println("\nFig. 4 dendrogram:")
			fmt.Print(experiments.GPSDendrogramASCII(&r.Full))
			for i := range r.Fragments {
				fmt.Printf("\nFig. %d dendrogram:\n", 5+i)
				fmt.Print(experiments.GPSDendrogramASCII(&r.Fragments[i]))
			}
		}
	case "dist":
		rows, err := experiments.DistributionSweep(
			[]int{32 << 10, 128 << 10, 512 << 10, 2 << 20},
			[]int{3, 6, 12},
			provider.LatencyModel{},
		)
		if err != nil {
			return err
		}
		fmt.Println("§VIII-B distribution time sweep:")
		fmt.Print(experiments.FormatDistributionSweep(rows))
	case "chunksize":
		points, err := experiments.AblationChunkSize([]int{16 << 10, 8 << 10, 2 << 10, 512, 128}, 400, 4, 1)
		if err != nil {
			return err
		}
		fmt.Println("chunk size vs best-insider attack quality (§VII-C):")
		fmt.Print(experiments.FormatChunkSizeAblation(points))
	case "mislead":
		points, err := experiments.AblationMislead([]int{0, 25, 50, 100, 200}, 200, 1)
		if err != nil {
			return err
		}
		fmt.Println("misleading decoy records vs attack quality and overhead (§VII-D):")
		fmt.Print(experiments.FormatMisleadAblation(points))
	case "raidcmp":
		points, err := experiments.AblationRAID(3, 0.1, 1, 6, 1)
		if err != nil {
			return err
		}
		fmt.Println("RAID level comparison (availability & storage, §III-B):")
		fmt.Print(experiments.FormatRaidAblation(points))
	case "compromise":
		points, err := experiments.AblationCompromise(5, 400, 1)
		if err != nil {
			return err
		}
		fmt.Println("outside attacker: compromised providers vs mining success:")
		fmt.Print(experiments.FormatCompromise(points))
	case "baskets":
		cfg := dataset.DefaultBasketConfig()
		points, err := experiments.BasketRuleExperiment(cfg, 4, 0.05, 0.7)
		if err != nil {
			return err
		}
		fmt.Println("association-rule recovery: whole log vs per-insider fragments (§II-B):")
		fmt.Print(experiments.FormatBasketExperiment(points))
	case "health":
		cfg := dataset.DefaultHealthConfig()
		points, baseline, err := experiments.HealthPredictionExperiment(cfg, 4)
		if err != nil {
			return err
		}
		fmt.Println("risk-prediction attack: whole cohort vs per-insider fragments:")
		fmt.Print(experiments.FormatHealthExperiment(points, baseline))
	case "cost":
		r, err := experiments.CostTradeoff(3, 128<<10, 1)
		if err != nil {
			return err
		}
		fmt.Println("security/cost trade-off billing (§IV-B):")
		fmt.Print(experiments.FormatCost(r))
	case "encfrag":
		points, err := experiments.EncryptionVsFragmentation(
			[]int{256 << 10, 1 << 20, 4 << 20, 16 << 20}, 64<<10, 4096)
		if err != nil {
			return err
		}
		fmt.Println("encryption vs fragmentation query cost, analytic model (§VII-E):")
		fmt.Print(experiments.FormatEncVsFrag(points))
		live, err := experiments.EncryptionVsFragmentationLive(
			[]int{256 << 10, 1 << 20, 4 << 20}, 4096, 1)
		if err != nil {
			return err
		}
		fmt.Println("\nmeasured end-to-end (real provider byte counters):")
		fmt.Print(experiments.FormatEncVsFragLive(live))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", id, strings.Join(experimentsOrder, ", "))
		os.Exit(2)
	}
	return nil
}
