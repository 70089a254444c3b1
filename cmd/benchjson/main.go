// Command benchjson keeps the repository's benchmark record, BENCH.jsonl:
// one JSON line per recorded run. It reads `go test -bench` output on
// stdin and does one of two jobs.
//
//   - Writer: every sample is one revision's. The line holds each
//     benchmark's median, interquartile range (IQR) and n of ns/op, and
//     the medians of B/op and allocs/op where -benchmem printed them.
//   - Judge: `side: base` and `side: change` configuration lines split
//     the input between two revisions, whose test binaries ran in
//     alternated pairs (make bench BASE=<rev>). The i-th base sample of a
//     benchmark pairs with its i-th change sample. A benchmark is
//     `better` when the change is faster in at least nine tenths of the
//     pairs (ties count for neither) and its median is faster than the
//     base's by more than the base's IQR, `worse` the other way round,
//     and `same` otherwise, and always on fewer than 10 pairs.
//
// Either way the appended line also names each side's revision (from
// `rev:` configuration lines), the Go version, nproc, the CPU and the
// share of CPU time /proc/stat counts as stolen while the input was
// read. benchjson exits 1 when the input reports a failed test or
// build, and when a benchmark is judged worse.
//
// Usage:
//
//	go test -run '^$' -bench . -count 5 ./internal/raid | benchjson -out BENCH.jsonl
//	make bench BASE=<rev>
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// record is one line of BENCH.jsonl. Lines folded in from older records
// name the PR they were taken at and the statistic they hold.
type record struct {
	Rev        string           `json:"rev"`
	Base       string           `json:"base,omitempty"`
	PR         int              `json:"pr,omitempty"`
	Go         string           `json:"go,omitempty"`
	Nproc      int              `json:"nproc,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Steal      *float64         `json:"steal,omitempty"` // share of CPU time stolen over the run
	Statistic  string           `json:"statistic"`       // what ns_op is: "median" for the lines benchjson writes
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// entry is one benchmark of a record: the change's summary and, from a
// judged run, the base's, the pairs the change won and the verdict.
type entry struct {
	Change  summary  `json:"change"`
	Base    *summary `json:"base,omitempty"`
	Wins    string   `json:"wins,omitempty"` // "9/10": pairs the change ran faster in
	Verdict string   `json:"verdict,omitempty"`
}

// summary is one side's samples of one benchmark.
type summary struct {
	NsOp     float64 `json:"ns_op"`
	IQR      float64 `json:"iqr,omitempty"`
	N        int     `json:"n"`
	BOp      float64 `json:"b_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
}

// samples is one side's measurements of one benchmark, in input order.
type samples struct{ ns, bytes, allocs []float64 }

// input is what one benchmark run printed.
type input struct {
	sides  map[string]map[string]*samples // side → benchmark → samples
	revs   map[string]string              // side → revision
	cpu    string
	failed []string // the lines that report a failed test or build
}

// writerSide is the side of every sample that no `side:` line names.
const writerSide = "change"

// parse reads `go test -bench` output: result lines, and the `side:`,
// `rev:` and `cpu:` configuration lines.
func parse(r io.Reader) (*input, error) {
	in := &input{sides: map[string]map[string]*samples{}, revs: map[string]string{}}
	side := writerSide
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "panic:") {
			in.failed = append(in.failed, line)
			continue
		}
		if key, val, ok := strings.Cut(line, ": "); ok && !strings.ContainsAny(key, " \t") {
			switch key {
			case "side":
				side = val
			case "rev":
				in.revs[side] = val
			case "cpu":
				in.cpu = val
			}
			continue
		}
		name, vals, ok := parseResult(line)
		if !ok {
			continue
		}
		if in.sides[side] == nil {
			in.sides[side] = map[string]*samples{}
		}
		s := in.sides[side][name]
		if s == nil {
			s = &samples{}
			in.sides[side][name] = s
		}
		s.ns = append(s.ns, vals["ns/op"])
		if v, ok := vals["B/op"]; ok {
			s.bytes = append(s.bytes, v)
		}
		if v, ok := vals["allocs/op"]; ok {
			s.allocs = append(s.allocs, v)
		}
	}
	return in, sc.Err()
}

// parseResult reads one benchmark result line: the name without its
// -GOMAXPROCS suffix, the iteration count, then value-unit pairs
// (ns/op, MB/s, B/op, allocs/op and any custom metric).
func parseResult(line string) (name string, vals map[string]float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
		return "", nil, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return "", nil, false
	}
	vals = map[string]float64{}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals[f[i+1]] = v
	}
	if _, ok := vals["ns/op"]; !ok {
		return "", nil, false
	}
	name = f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name, vals, true
}

// quantile is the q-quantile of sorted xs, interpolated linearly between
// the closest ranks (the default of R and numpy).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// medianIQR returns the median of xs and its interquartile range.
func medianIQR(xs []float64) (median, iqr float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5), quantile(s, 0.75) - quantile(s, 0.25)
}

func summarize(s *samples) summary {
	out := summary{N: len(s.ns)}
	out.NsOp, out.IQR = medianIQR(s.ns)
	out.BOp, _ = medianIQR(s.bytes)
	out.AllocsOp, _ = medianIQR(s.allocs)
	return out
}

// minPairs is the fewest pairs a verdict other than "same" is given on:
// nine tenths of fewer pairs is too few wins to mean anything.
const minPairs = 10

// judge pairs base[i] with change[i] and applies the verdict rule: the
// change must be faster (or, for worse, slower) in at least nine tenths
// of the pairs, and its median must differ from the base's by more than
// the base's IQR. wins counts the pairs the change was faster in.
func judge(base, change []float64) (verdict string, wins, pairs int) {
	pairs = min(len(base), len(change))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case change[i] < base[i]:
			wins++
		case change[i] > base[i]:
			losses++
		}
	}
	bMed, bIQR := medianIQR(base[:pairs])
	cMed, _ := medianIQR(change[:pairs])
	switch {
	case pairs < minPairs:
		return "same", wins, pairs
	case 10*wins >= 9*pairs && bMed-cMed > bIQR:
		return "better", wins, pairs
	case 10*losses >= 9*pairs && cMed-bMed > bIQR:
		return "worse", wins, pairs
	}
	return "same", wins, pairs
}

// build turns a parsed run into its record: one side, or two judged.
func build(in *input) (*record, error) {
	change := in.sides[writerSide]
	if len(in.failed) > 0 {
		return nil, fmt.Errorf("the run failed, nothing recorded:\n  %s", strings.Join(in.failed, "\n  "))
	}
	if len(change) == 0 {
		return nil, errors.New("no benchmark results on stdin")
	}
	rec := &record{Rev: in.revs[writerSide], Base: in.revs["base"], Go: runtime.Version(), Nproc: runtime.NumCPU(),
		CPU: in.cpu, Statistic: "median", Benchmarks: map[string]entry{}}
	for name, c := range change {
		e := entry{Change: summarize(c)}
		if b, ok := in.sides["base"][name]; ok {
			bs := summarize(b)
			verdict, wins, pairs := judge(b.ns, c.ns)
			e.Base, e.Verdict, e.Wins = &bs, verdict, fmt.Sprintf("%d/%d", wins, pairs)
		}
		rec.Benchmarks[name] = e
	}
	return rec, nil
}

// cpuTicks reads the aggregate cpu line of /proc/stat: the steal ticks
// and the total of user, nice, system, idle, iowait, irq, softirq and
// steal (guest time is already counted in user and nice). Both are 0
// where there is no such file.
func cpuTicks() (steal, total float64) {
	raw, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for _, s := range f[1:9] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		steal = v // the eighth field
	}
	return steal, total
}

func main() {
	out := flag.String("out", "BENCH.jsonl", "append the record to this file")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(stdin io.Reader, stdout io.Writer, out string) error {
	steal0, total0 := cpuTicks()
	in, err := parse(stdin)
	if err != nil {
		return fmt.Errorf("reading stdin: %w", err)
	}
	rec, err := build(in)
	if err != nil {
		return err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		share := math.Round((steal1-steal0)/(total1-total0)*1e4) / 1e4
		rec.Steal = &share
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(out, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return printRecord(stdout, rec, out)
}

// printRecord writes the human-readable digest, and fails when a
// benchmark was judged worse.
func printRecord(w io.Writer, rec *record, out string) error {
	names := make([]string, 0, len(rec.Benchmarks))
	for n := range rec.Benchmarks {
		names = append(names, n)
	}
	slices.Sort(names)
	side := func(s *summary) string {
		if s == nil {
			return "-"
		}
		return fmt.Sprintf("%.0f ±%.0f (n=%d)", s.NsOp, s.IQR, s.N)
	}
	var worse []string
	for _, n := range names {
		e := rec.Benchmarks[n]
		fmt.Fprintf(w, "%-60s %28s → %-28s ns/op  %5s %s\n", n, side(e.Base), side(&e.Change), e.Wins, e.Verdict)
		if e.Verdict == "worse" {
			worse = append(worse, n)
		}
	}
	steal := "unknown"
	if rec.Steal != nil {
		steal = fmt.Sprintf("%.2f%%", 100**rec.Steal)
	}
	fmt.Fprintf(w, "benchjson: %d benchmarks, rev %q base %q, %s, nproc %d, steal %s -> %s\n",
		len(names), rec.Rev, rec.Base, rec.Go, rec.Nproc, steal, out)
	if len(worse) > 0 {
		return fmt.Errorf("worse than the base: %s", strings.Join(worse, ", "))
	}
	return nil
}
