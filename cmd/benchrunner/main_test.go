package main

import (
	"testing"

	"repro/internal/experiments"
)

// TestAllExperimentsRun executes every experiment id and alias end to
// end — the same code path `benchrunner -exp <id>` takes.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range ids() {
		t.Run(id, func(t *testing.T) {
			r, ok := experiments.Lookup(id)
			if !ok {
				t.Fatalf("%s names no report", id)
			}
			if err := show(r, false); err != nil {
				t.Fatalf("experiment %s: %v", id, err)
			}
		})
	}
}

func TestVerboseGPS(t *testing.T) {
	r, _ := experiments.Lookup("fig4")
	if err := show(r, true); err != nil {
		t.Fatal(err)
	}
}
