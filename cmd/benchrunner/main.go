// Command benchrunner regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout. Each experiment id
// names a report of experiments.Catalogue and a section of
// EXPERIMENTS.md.
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

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(ids(), "|")+"|all")
	verbose := flag.Bool("verbose", false, "print full dendrograms for the GPS figures")
	flag.Parse()

	reports := experiments.Catalogue
	if *exp != "all" {
		r, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s, all\n", *exp, strings.Join(ids(), ", "))
			os.Exit(2)
		}
		reports = []experiments.Report{r}
	}
	for _, r := range reports {
		if err := show(r, *verbose); err != nil {
			log.Fatalf("benchrunner %s: %v", r.ID, err)
		}
	}
}

// ids lists every id the catalogue answers to, each report's aliases
// after its own.
func ids() (out []string) {
	for _, r := range experiments.Catalogue {
		out = append(append(out, r.ID), r.Aliases...)
	}
	return out
}

// show runs one report and prints it under its header.
func show(r experiments.Report, verbose bool) error {
	out, err := r.Run(verbose)
	if err != nil {
		return err
	}
	fmt.Printf("==== experiment %s ====\n%s\n", r.ID, out)
	return nil
}
