// Command minecheck runs the adversary-in-the-loop frontier sweep: it
// stands the real loopback deployment up once per configuration cell
// (privacy level 0–3 × RAID-5/6 × mislead on/off × cache on/off ×
// hedging on/off × 1/4 shards), drives the mixed tenant workload, mounts
// the full mining arsenal from malicious-provider vantage points, and
// emits the privacy-vs-performance frontier as minecheck/v1 JSON
// plus an optional markdown table.
//
// Usage:
//
//	minecheck -seed 1 -out frontier.json
//	minecheck -seed 1 -gate-cells -table        # quick subset, stdout table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/minecheck"
)

func main() {
	seed := flag.Int64("seed", 1, "campaign seed")
	out := flag.String("out", "", "write minecheck/v1 JSON to this file ('' or '-' = stdout)")
	table := flag.Bool("table", false, "print the frontier as a markdown table to stderr")
	gateOnly := flag.Bool("gate-cells", false, "sweep only the CI gate cells instead of the full 128-cell grid")
	flag.Parse()

	cells := minecheck.AllCells()
	if *gateOnly {
		cells = minecheck.GateCells()
	}
	fmt.Fprintf(os.Stderr, "minecheck: sweeping %d cells at seed %d\n", len(cells), *seed)
	frontier, err := minecheck.Sweep(*seed, cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minecheck:", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(frontier, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "minecheck:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" || *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "minecheck:", err)
		os.Exit(1)
	} else {
		fmt.Fprintf(os.Stderr, "minecheck: %d cells -> %s\n", len(frontier.Cells), *out)
	}
	if *table {
		fmt.Fprint(os.Stderr, frontier.Table())
	}

	// The gate is advisory here (CI enforces it via go test); still,
	// surface any defended cell over threshold so a manual sweep shouts.
	th := minecheck.DefaultThresholds()
	for i := range frontier.Cells {
		for _, v := range frontier.Cells[i].Gate(th) {
			fmt.Fprintln(os.Stderr, "minecheck: WARNING:", v)
		}
	}
}
