package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestParseResult(t *testing.T) {
	for _, tc := range []struct {
		line string
		name string
		vals map[string]float64
	}{
		{"BenchmarkStripTo/file4MiB/f0.25-2   \t     100\t   4590000 ns/op",
			"BenchmarkStripTo/file4MiB/f0.25", map[string]float64{"ns/op": 4590000}},
		{"BenchmarkStripe/raid6/64KiB-2   5000   101181 ns/op   2590.85 MB/s",
			"BenchmarkStripe/raid6/64KiB", map[string]float64{"ns/op": 101181, "MB/s": 2590.85}},
		{"BenchmarkWALEncodeUpload-2   2000   495000 ns/op   2252816 B/op   1 allocs/op",
			"BenchmarkWALEncodeUpload", map[string]float64{"ns/op": 495000, "B/op": 2252816, "allocs/op": 1}},
		{"BenchmarkGetFile/mislead/256KiB-8  1500  758174 ns/op  345.76 MB/s  566297 B/op  48 allocs/op",
			"BenchmarkGetFile/mislead/256KiB", map[string]float64{"ns/op": 758174, "MB/s": 345.76, "B/op": 566297, "allocs/op": 48}},
		{"BenchmarkGetFileDefendedRTT/rtt=2ms/P4/s3-verbs-2  3  255000000 ns/op  16.4 MB/s  0 hedged/op  512.0 provider-reqs/op",
			"BenchmarkGetFileDefendedRTT/rtt=2ms/P4/s3-verbs", map[string]float64{"ns/op": 255000000, "MB/s": 16.4, "hedged/op": 0, "provider-reqs/op": 512}},
		// GOMAXPROCS=1 prints no suffix.
		{"BenchmarkInject/8KiB/f0.05   30000   40000 ns/op", "BenchmarkInject/8KiB/f0.05", map[string]float64{"ns/op": 40000}},
	} {
		name, vals, ok := parseResult(tc.line)
		if !ok || name != tc.name || fmt.Sprint(vals) != fmt.Sprint(tc.vals) {
			t.Errorf("parseResult(%q) = %q %v %v, want %q %v", tc.line, name, vals, ok, tc.name, tc.vals)
		}
	}
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro/internal/raid\t3.1s",
		"BenchmarkX-2   --- SKIP",
		"BenchmarkX-2   100   12 MB/s", // no ns/op
		"--- BENCH: BenchmarkX-2",
	} {
		if name, _, ok := parseResult(line); ok {
			t.Errorf("parseResult(%q) read a result named %q", line, name)
		}
	}
}

// TestParseCountN: -count N prints N lines per benchmark; each is one
// sample, and the configuration lines name the side and its revision.
func TestParseCountN(t *testing.T) {
	out := `goos: linux
cpu: Some CPU @ 2.0GHz
side: base
rev: aaa
pkg: repro/internal/raid
BenchmarkA-2   100   10 ns/op   64 B/op   2 allocs/op
BenchmarkA-2   100   12 ns/op   64 B/op   2 allocs/op
PASS
side: change
rev: bbb
BenchmarkA-2   100   9 ns/op   32 B/op   1 allocs/op
BenchmarkA-2   100   8 ns/op   32 B/op   1 allocs/op
BenchmarkA-2   100   7 ns/op   32 B/op   1 allocs/op
`
	in, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if in.cpu != "Some CPU @ 2.0GHz" || in.revs["base"] != "aaa" || in.revs["change"] != "bbb" || len(in.failed) != 0 {
		t.Fatalf("cpu %q revs %v failed %v", in.cpu, in.revs, in.failed)
	}
	if got := in.sides["base"]["BenchmarkA"].ns; fmt.Sprint(got) != "[10 12]" {
		t.Errorf("base samples %v", got)
	}
	c := summarize(in.sides["change"]["BenchmarkA"])
	if c != (summary{NsOp: 8, IQR: 1, N: 3, BOp: 32, AllocsOp: 1}) {
		t.Errorf("change summary %+v", c)
	}
}

func TestParseReportsFailures(t *testing.T) {
	for _, out := range []string{
		"BenchmarkA-2 100 10 ns/op\n--- FAIL: BenchmarkB\nFAIL\n",
		"FAIL\trepro/internal/core [build failed]\n",
		"BenchmarkA-2 100 10 ns/op\npanic: boom\n",
	} {
		in, err := parse(strings.NewReader(out))
		if err != nil || len(in.failed) == 0 {
			t.Errorf("%q: failed %v, err %v", out, in.failed, err)
		}
	}
}

func TestMedianIQR(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		median, iqr float64
	}{
		{[]float64{7}, 7, 0},
		{[]float64{3, 1}, 2, 1},
		{[]float64{5, 1, 4, 2, 3}, 3, 2},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 4.5},
		// PR 33's parent side of BenchmarkStripTo/file4MiB/f0.25 (ms).
		{[]float64{8.31, 7.45, 8.53, 8.47, 6.99, 7.04, 7.40, 7.93, 8.18, 7.26}, 7.69, 0.9825},
	} {
		m, iqr := medianIQR(tc.xs)
		if !near(m, tc.median) || !near(iqr, tc.iqr) {
			t.Errorf("medianIQR(%v) = %v, %v, want %v, %v", tc.xs, m, iqr, tc.median, tc.iqr)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestJudge is the verdict rule on synthetic samples.
func TestJudge(t *testing.T) {
	base := []float64{100, 104, 98, 101, 99, 103, 97, 102, 100, 96} // median 100, IQR 3.5
	twenty := append(slices.Clone(base), base...)                   // make bench's pair count
	shifted := func(base []float64, by float64, losing ...int) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b + by
		}
		for _, i := range losing {
			out[i] = base[i] - by // the pair goes the other way
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		base, change []float64
		verdict      string
		wins         int
	}{
		{"identical", base, base, "same", 0},
		{"faster by more than the IQR in 10/10", base, shifted(base, -10), "better", 10},
		{"slower by more than the IQR in 10/10", base, shifted(base, 10), "worse", 0},
		{"faster in 9/10", base, shifted(base, -10, 3), "better", 9},
		{"faster in 8/10", base, shifted(base, -10, 3, 7), "same", 8},
		{"slower in 8/10", base, shifted(base, 10, 3, 7), "same", 2},
		{"faster in 10/10 by less than the IQR", base, shifted(base, -3), "same", 10},
		{"too few pairs", base[:5], shifted(base, -10)[:5], "same", 5},
		{"slower in 18/20", twenty, shifted(twenty, 10, 3, 13), "worse", 2},
		{"slower in 17/20", twenty, shifted(twenty, 10, 3, 7, 13), "same", 3},
	} {
		verdict, wins, pairs := judge(tc.base, tc.change)
		if verdict != tc.verdict || wins != tc.wins || pairs != len(tc.base) {
			t.Errorf("%s: %s, %d/%d; want %s, %d/%d", tc.name, verdict, wins, pairs, tc.verdict, tc.wins, len(tc.base))
		}
	}
}

// bench3Line is one benchmark of BENCH_3.json folded as a
// historical line: fastest of three, no IQR.
const bench3Line = `{"rev":"35df3f5","pr":3,"statistic":"min of 3","note":"folded from BENCH_3.json","benchmarks":{"BenchmarkGetFile/mislead/256KiB":{"change":{"ns_op":758174,"n":3,"b_op":566297,"allocs_op":48}}}}`

func TestHistoricalLineDecodes(t *testing.T) {
	var rec record
	if err := json.Unmarshal([]byte(bench3Line), &rec); err != nil {
		t.Fatal(err)
	}
	e, ok := rec.Benchmarks["BenchmarkGetFile/mislead/256KiB"]
	if rec.Statistic != "min of 3" || rec.PR != 3 || !ok || e.Change.NsOp != 758174 || e.Change.N != 3 || e.Base != nil {
		t.Fatalf("decoded %+v", rec)
	}
}

// TestTrajectoryDecodes: every line of the committed BENCH.jsonl is one
// record with a revision, a statistic and at least one benchmark.
func TestTrajectoryDecodes(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "BENCH.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		var rec record
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if rec.Rev == "" || rec.Statistic == "" || len(rec.Benchmarks) == 0 {
			t.Errorf("line %d: rev %q statistic %q, %d benchmarks", n, rec.Rev, rec.Statistic, len(rec.Benchmarks))
		}
	}
	if err := sc.Err(); err != nil || n == 0 {
		t.Fatalf("%d lines, err %v", n, err)
	}
}

// TestRunAppends: each run appends one line, and a run judged worse
// still records its line but fails.
func TestRunAppends(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.jsonl")
	pairs := func(base, change float64) string {
		var b strings.Builder
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&b, "side: base\nrev: b\nBenchmarkA-2 100 %v ns/op\nside: change\nrev: c\nBenchmarkA-2 100 %v ns/op\n", base+float64(i%3), change+float64(i%3))
		}
		return b.String()
	}
	if err := run(strings.NewReader(pairs(100, 100)), io.Discard, out); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(pairs(100, 150)), io.Discard, out); err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("a worse run: err %v", err)
	}
	if err := run(strings.NewReader("FAIL\trepro/x [build failed]\n"), io.Discard, out); err == nil {
		t.Fatal("a failed run was recorded")
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2:\n%s", len(lines), raw)
	}
	var rec record
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	e := rec.Benchmarks["BenchmarkA"]
	if rec.Rev != "c" || rec.Base != "b" || rec.Go == "" || rec.Nproc == 0 || e.Verdict != "worse" || e.Wins != "0/10" ||
		e.Base == nil || e.Base.N != 10 || e.Change.N != 10 || e.Change.NsOp != 151 {
		t.Fatalf("second line %s", lines[1])
	}
}
