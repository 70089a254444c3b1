package experiments

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// wallClock matches a printed duration with the padding before it: fig1's
// wall time and dist's wall column, the only fields that differ run to
// run.
var wallClock = regexp.MustCompile(` +\d[\d.]*(ns|µs|ms|s)\b`)

// TestCatalogueGolden holds every report to testdata/catalogue.golden,
// which is `benchrunner -exp all` with the wall-clock fields masked:
//
//	go run ./cmd/benchrunner -exp all | sed -E 's/ +[0-9][0-9.]*(ns|µs|ms|s)\b/ <wall>/g' \
//		> internal/experiments/testdata/catalogue.golden
func TestCatalogueGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/catalogue.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range Catalogue {
		out, err := r.Run(false)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		fmt.Fprintf(&b, "==== experiment %s ====\n%s\n", r.ID, out)
	}
	if got := wallClock.ReplaceAllString(b.String(), " <wall>"); got != string(want) {
		t.Fatalf("the reports differ from testdata/catalogue.golden:\n%s", got)
	}
}

// Every id benchrunner has answered to still names a report, and each
// report once.
func TestCatalogueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range strings.Fields(`tables table1 table2 table3 table4 table4sys fig1 fig2 fig3 fig4 fig5 fig6
		dist chunksize mislead raidcmp compromise encfrag baskets health cost`) {
		r, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s names no report", id)
		}
		seen[r.ID] = true
	}
	if len(seen) != len(Catalogue) {
		t.Fatalf("%d reports named, catalogue has %d", len(seen), len(Catalogue))
	}
}
