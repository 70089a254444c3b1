package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one end-to-end metric: its unit, which way is better, and
// the share of the baseline median by which it may worsen before
// -compare (and the driver, through BENCHMARK.json) calls a regression.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	// except lists the workloads on which the metric could not be made
	// steady enough to gate; there it is printed as informational only.
	// A metric with exceptions cannot be in BENCHMARK.json, whose list
	// holds for every workload, so only -compare gates it.
	except []string
}

func (d metricDef) gatedOn(workload string) bool {
	for _, w := range d.except {
		if w == workload {
			return false
		}
	}
	return true
}

// endToEnd is the gated list. BENCHMARK.json repeats the entries without
// exceptions, and the test checks the two agree; every workload reports
// every one of those.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "mb_per_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "put_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "get_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "range_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "read_p90_ms", unit: "ms", better: "lower", bound: 0.25, except: []string{"stream-large", "defended-large"}},
	{name: "stored_bytes_per_user_byte", unit: "B/B", better: "lower", bound: 0.005},
}

// driverMetrics is the part of endToEnd that holds on every workload:
// what BENCHMARK.json lists and the result line carries.
func driverMetrics() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if len(d.except) == 0 {
			out = append(out, d)
		}
	}
	return out
}

// metric is one reported number. N is the sample count behind a timing;
// P is the percentile a *_tail_ms stands for.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P     float64 `json:"p,omitempty"`
}

// minBeyond is the number of samples that must lie beyond a percentile
// before it is printed at all.
const minBeyond = 10

// median is the exact sorted-sample median, reported only when at least
// minBeyond samples lie on each side of it.
func median(sorted []float64) (float64, bool) {
	if len(sorted)/2 < minBeyond {
		return 0, false
	}
	return middle(sorted), true
}

// middle is the median of a non-empty sorted slice.
func middle(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantile is the nearest-rank p-quantile, reported only when at least
// minBeyond samples lie beyond it.
func quantile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 || n-1-idx < minBeyond {
		return 0, false
	}
	return sorted[idx], true
}

// rawMedian is the median of however many values there are, for numbers
// that are not percentiles of a latency sample (set-up repetitions,
// kernel timings).
func rawMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return middle(s)
}

var tailLadder = []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75}

// tail is the highest percentile of the ladder the sample supports.
func tail(sorted []float64) (metric, bool) {
	for _, p := range tailLadder {
		if v, ok := quantile(sorted, p); ok {
			return metric{Value: v, Unit: "ms", N: len(sorted), P: p * 100}, true
		}
	}
	return metric{}, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runReport is everything one run of one workload measured.
type runReport struct {
	Workload     string            `json:"workload"`
	Why          string            `json:"why"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	SequenceHash string            `json:"sequence_hash"`
	Deployment   deploymentInfo    `json:"deployment"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`
	// Informational metrics are printed and never gated.
	Informational map[string]metric `json:"informational,omitempty"`
	PerLayer      map[string]metric `json:"per_layer,omitempty"`
	// Layers is the per-operation-class table behind PerLayer.
	Layers map[string]map[string]metric `json:"layers,omitempty"`
}

func (r *runReport) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// summarize turns the window's events into the end-to-end and
// informational metrics.
func (e *env) summarize(r *runReport, elapsed time.Duration, setups []float64, peakHeap uint64) {
	var (
		byKind [numKinds][]float64
		reads  []float64
		bytes  int64
		ops    int
		issued int
		late   int
	)
	isRead := func(k opKind) bool {
		for _, rk := range e.sp.reads {
			if rk == k {
				return true
			}
		}
		return false
	}
	for _, w := range e.workers {
		r.Attempted += w.attempted
		r.Failed += w.failed
		late += w.late
		if w.ws.rate > 0 {
			issued += w.attempted
		}
		for _, ev := range w.events {
			byKind[ev.kind] = append(byKind[ev.kind], ms(ev.lat))
			if isRead(ev.kind) {
				reads = append(reads, ms(ev.lat))
			}
			bytes += int64(ev.bytes)
			ops++
		}
	}
	for k := range byKind {
		sort.Float64s(byKind[k])
	}
	sort.Float64s(reads)

	meanOps, meanMB := float64(ops)/elapsed.Seconds(), float64(bytes)/1e6/elapsed.Seconds()
	r.EndToEnd = map[string]metric{
		"setup_s":                    {Value: rawMedian(setups), Unit: "s", N: len(setups)},
		"ops_per_s":                  {Value: meanOps, Unit: "1/s", N: 1},
		"mb_per_s":                   {Value: meanMB, Unit: "MB/s", N: 1},
		"stored_bytes_per_user_byte": {Value: e.storedPerUserByte, Unit: "B/B"},
	}
	r.Informational = map[string]metric{
		"error_share":    {Value: float64(r.Failed) / float64(max(r.Attempted, 1)), Unit: "ratio", N: r.Attempted},
		"window_s":       {Value: elapsed.Seconds(), Unit: "s"},
		"peak_heap_mb":   {Value: float64(peakHeap) / 1e6, Unit: "MB"},
		"ops_per_s_mean": {Value: meanOps, Unit: "1/s", N: ops},
		"mb_per_s_mean":  {Value: meanMB, Unit: "MB/s", N: ops},
	}
	// Throughput is the median rate over the window's intervals, so a
	// stall that hits a few of them (a GC episode, a noisy neighbour)
	// does not move it; the plain ratio above stays as *_mean.
	opsRates, mbRates := e.intervalRates(elapsed)
	if v, ok := median(opsRates); ok {
		r.EndToEnd["ops_per_s"] = metric{Value: v, Unit: "1/s", N: len(opsRates)}
	}
	if v, ok := median(mbRates); ok {
		r.EndToEnd["mb_per_s"] = metric{Value: v, Unit: "MB/s", N: len(mbRates)}
	}
	if issued > 0 {
		r.Informational["generator_late_share"] = metric{Value: float64(late) / float64(issued), Unit: "ratio", N: issued}
	}
	p50 := func(into map[string]metric, name string, sorted []float64) {
		if v, ok := median(sorted); ok {
			into[name] = metric{Value: v, Unit: "ms", N: len(sorted)}
		}
	}
	p50(r.EndToEnd, "put_p50_ms", byKind[opPut])
	p50(r.EndToEnd, "get_p50_ms", byKind[opGet])
	p50(r.EndToEnd, "range_p50_ms", byKind[opRange])
	p50(r.EndToEnd, "read_p50_ms", reads)
	if v, ok := quantile(reads, 0.90); ok {
		r.EndToEnd["read_p90_ms"] = metric{Value: v, Unit: "ms", N: len(reads)}
	}
	for _, d := range endToEnd {
		if m, ok := r.EndToEnd[d.name]; ok && !d.gatedOn(e.sp.name) {
			r.Informational[d.name] = m
			delete(r.EndToEnd, d.name)
		}
	}
	p50(r.Informational, "update_p50_ms", byKind[opUpdate])
	p50(r.Informational, "remove_p50_ms", byKind[opRemove])
	for k, sorted := range byKind {
		if m, ok := tail(sorted); ok {
			r.Informational[opKind(k).String()+"_tail_ms"] = m
		}
	}
	if m, ok := tail(reads); ok {
		r.Informational["read_tail_ms"] = m
	}
}

// intervalRates cuts the window into intervals — the first closed-loop
// worker's cycles on the cycle workloads, twenty equal slices otherwise —
// and returns the operations and megabytes completed per second in each,
// sorted.
func (e *env) intervalRates(elapsed time.Duration) (ops, mb []float64) {
	var edges []time.Duration
	if e.sp.minCycles > 0 {
		edges = append(edges, e.workers[0].marks...)
		edges = append(edges, e.workers[0].done)
	} else {
		for i := 0; i <= 20; i++ {
			edges = append(edges, elapsed*time.Duration(i)/20)
		}
	}
	n := len(edges) - 1
	if n < 1 {
		return nil, nil
	}
	counts, bytes := make([]float64, n), make([]float64, n)
	for _, w := range e.workers {
		for _, ev := range w.events {
			end := ev.start + ev.lat
			i := sort.Search(len(edges), func(i int) bool { return edges[i] > end }) - 1
			if i >= 0 && i < n {
				counts[i]++
				bytes[i] += float64(ev.bytes)
			}
		}
	}
	for i := 0; i < n; i++ {
		if d := (edges[i+1] - edges[i]).Seconds(); d > 0 {
			ops = append(ops, counts[i]/d)
			mb = append(mb, bytes[i]/1e6/d)
		}
	}
	sort.Float64s(ops)
	sort.Float64s(mb)
	return ops, mb
}
