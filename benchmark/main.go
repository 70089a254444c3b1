// Command benchmark is the repository's one end-to-end benchmark: it
// builds the real loopback deployment from the public constructors,
// drives one of four named workloads against it from a single process,
// checks every byte it reads back, and prints every metric by name with
// its unit and sample count. See README.md in this directory.
//
//	go run ./benchmark -workload small-mixed -seed 1 -seconds 20
//	go run ./benchmark -workload stream-large -seed 1 -seconds 20 -trace 1
//	go run ./benchmark -workload all -repeat 2 -out a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// processStart anchors setup_s: the first set-up of a run is timed from
// here, so process start-up is inside it.
var processStart = time.Now()

// setupRepeats is how many times a run boots, preloads and warms the
// system before measuring; setup_s is the median. One boot is too noisy
// to gate on.
const setupRepeats = 3

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	dir     string // where WAL directories and trace files go
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "workload name, a comma-separated list, or 'all'")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same operation sequence")
		seconds = fs.Float64("seconds", 20, "length of the measured window")
		trace   = fs.Int("trace", 0, "1 = single-worker traced passes and the per-layer table instead of the end-to-end metrics")
		smoke   = fs.Bool("smoke", false, "shrunken sizes and counts, no sample-count floor: proves the benchmark runs, measures nothing")
		repeat  = fs.Int("repeat", 1, "run the workload list this many times, reversing its order every other time")
		out     = fs.String("out", "", "write the reports as one JSON document (the input of -compare)")
		compare = fs.Bool("compare", false, "compare two -out documents given as arguments: baseline, then candidate")
		dir     = fs.String("dir", "benchmark/out", "scratch directory for WAL temp dirs and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files: baseline.json candidate.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *names == "" || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: need -workload <name>; -seconds > 0; -repeat >= 1; -trace 0|1")
		return 2
	}
	var specs []spec
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			specs = append(specs, gatedWorkloads(*smoke)...)
			continue
		}
		sp, ok := findSpec(name, *smoke)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		specs = append(specs, sp)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, dir: *dir}

	doc := document{Workloads: map[string][]*runReport{}}
	var last *runReport
	failed := false
	for rep := 0; rep < *repeat; rep++ {
		for i := range specs {
			sp := specs[i]
			if rep%2 == 1 {
				sp = specs[len(specs)-1-i]
			}
			r, err := runWorkload(sp, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
				return 1
			}
			doc.Workloads[sp.name] = append(doc.Workloads[sp.name], r)
			last = r
			failed = failed || !r.correct()
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(r); err != nil {
				return 1
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(specs) == 1 && *repeat == 1 && !specs[0].baseline {
		line, err := resultLine(last, cfg.trace)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if failed {
		fmt.Fprintln(stderr, "benchmark: FAILED: operations failed or read back wrong bytes (see above)")
		return 1
	}
	return 0
}

// document is what -out writes and -compare reads: every run of every
// workload of one invocation.
type document struct {
	Workloads map[string][]*runReport `json:"workloads"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the driver's contract: one JSON object, last on stdout,
// carrying every end-to-end metric (or, traced, every per-layer one).
func resultLine(r *runReport, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	defs, have := driverMetrics(), r.EndToEnd
	if traced {
		defs, have = perLayer, r.PerLayer
	}
	for _, d := range defs {
		m, ok := have[d.name]
		if !ok {
			return "", fmt.Errorf("%s: %s has too few samples to be reported; lengthen -seconds", r.Workload, d.name)
		}
		line.Metrics[d.name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// runWorkload measures one workload once.
func runWorkload(sp spec, cfg runConfig) (*runReport, error) {
	r := &runReport{
		Workload: sp.name, Why: sp.why, Seed: cfg.seed, Seconds: cfg.seconds,
		SequenceHash: sequenceHash(sp, cfg.seed, 256), Deployment: describeDeployment(),
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return r, runTraced(sp, cfg, window, r)
	}

	repeats := setupRepeats
	if cfg.smoke {
		repeats = 1
	}
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.dep.close()
			runtime.GC()
		}
		from := time.Now()
		if !setupTimed {
			from, setupTimed = processStart, true
		}
		var err error
		if e, err = setUp(sp, cfg.seed, cfg.dir, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(from).Seconds())
	}
	defer e.dep.close()

	heap := startHeapSampler()
	elapsed := e.measure(e.dep.client, window)
	e.summarize(r, elapsed, setups, heap.stop())
	return r, nil
}

// setupTimed records that a set-up has already run in this process:
// only the very first is timed from process start.
var setupTimed bool

// heapSampler tracks the peak of live heap bytes over the window.
type heapSampler struct {
	quit chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.quit:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.quit)
	return <-h.done
}
