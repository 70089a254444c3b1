package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// reportSchema identifies the report's format; bump on incompatible
// changes.
const reportSchema = "cloudbench/v1"

// Report is one cloudbench run: per-op and aggregate latency/throughput
// over the measured (post-warmup) window, plus a whole-run timeline.
type Report struct {
	Schema   string          `json:"schema"`
	Target   string          `json:"target"`
	Config   ReportConfig    `json:"config"`
	Ops      map[string]Op   `json:"ops"`
	Total    Op              `json:"total"`
	Timeline []TimelinePoint `json:"timeline"`
	Errors   int64           `json:"errors"`
}

// ReportConfig echoes the knobs that shaped the run, so a report is
// reproducible from its own record.
type ReportConfig struct {
	Workers      int    `json:"workers"`
	Tenants      int    `json:"tenants"`
	Keys         int    `json:"keys_per_tenant"`
	Providers    int    `json:"providers,omitempty"`    // in-process fleet only, per distributor
	Distributors int    `json:"distributors,omitempty"` // shard count (1 = single distributor)
	Mix          string `json:"mix"`
	Sizes        string `json:"sizes"`
	Duration     string `json:"duration"`
	Warmup       string `json:"warmup"`
	Seed         int64  `json:"seed"`
}

// Op is one operation class's measured-window summary. Latencies are
// milliseconds; rates are over the measured window.
type Op struct {
	Count   int64   `json:"count"`
	Errors  int64   `json:"errors"`
	Bytes   int64   `json:"bytes"`
	OpsPerS float64 `json:"ops_per_s"`
	MBPerS  float64 `json:"mb_per_s"`
	P50ms   float64 `json:"p50_ms"`
	P90ms   float64 `json:"p90_ms"`
	P99ms   float64 `json:"p99_ms"`
	P999ms  float64 `json:"p99_9_ms"`
	MaxMs   float64 `json:"max_ms"`
	MeanMs  float64 `json:"mean_ms"`
}

// TimelinePoint is one interval of the whole-run (warmup included)
// throughput series.
type TimelinePoint struct {
	TSec    float64 `json:"t_s"`
	OpsPerS float64 `json:"ops_per_s"`
	MBPerS  float64 `json:"mb_per_s"`
	Errors  int64   `json:"errors"`
}

// timeline accumulates whole-run throughput per fixed interval. Workers
// hit it on every op completion, so the buckets are lock-free atomics.
type timeline struct {
	start    time.Time
	interval time.Duration
	buckets  []tlBucket
}

type tlBucket struct {
	ops   atomic.Int64
	errs  atomic.Int64
	bytes atomic.Int64
}

func newTimeline(start time.Time, total, interval time.Duration) *timeline {
	n := int(total/interval) + 2 // +slack for ops finishing past the deadline
	return &timeline{start: start, interval: interval, buckets: make([]tlBucket, n)}
}

func (t *timeline) record(at time.Time, n int64, failed bool) {
	i := int(at.Sub(t.start) / t.interval)
	if i < 0 {
		i = 0
	}
	if i >= len(t.buckets) {
		i = len(t.buckets) - 1
	}
	b := &t.buckets[i]
	b.ops.Add(1)
	b.bytes.Add(n)
	if failed {
		b.errs.Add(1)
	}
}

// points renders the series, trimming trailing empty buckets.
func (t *timeline) points() []TimelinePoint {
	last := -1
	for i := range t.buckets {
		if t.buckets[i].ops.Load() > 0 {
			last = i
		}
	}
	sec := t.interval.Seconds()
	pts := make([]TimelinePoint, 0, last+1)
	for i := 0; i <= last; i++ {
		b := &t.buckets[i]
		pts = append(pts, TimelinePoint{
			TSec:    float64(i) * sec,
			OpsPerS: round3(float64(b.ops.Load()) / sec),
			MBPerS:  round3(float64(b.bytes.Load()) / sec / (1 << 20)),
			Errors:  b.errs.Load(),
		})
	}
	return pts
}

func ms(ns int64) float64      { return round3(float64(ns) / 1e6) }
func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }

// buildReport merges the per-worker recorders into the emitted document.
func buildReport(cfg config, target string, workers []*worker, tl *timeline, measured time.Duration) *Report {
	rep := &Report{
		Schema: reportSchema,
		Target: target,
		Config: ReportConfig{
			Workers: cfg.workers, Tenants: cfg.tenants, Keys: cfg.keys,
			Mix: cfg.mix, Sizes: cfg.sizes,
			Duration: cfg.duration.String(), Warmup: cfg.warmup.String(),
			Seed: cfg.seed,
		},
		Ops:      map[string]Op{},
		Timeline: tl.points(),
	}
	if cfg.url == "" {
		rep.Config.Providers = cfg.localN
	}
	if cfg.dists > 1 {
		rep.Config.Distributors = cfg.dists
	}

	sec := measured.Seconds()
	totalHist := metrics.NewHistogram()
	var total Op
	for op := opKind(0); op < opCount; op++ {
		hist := metrics.NewHistogram()
		var count, errs, bytes int64
		for _, w := range workers {
			r := w.recs[op]
			hist.Merge(r.hist)
			count += r.count
			errs += r.errs
			bytes += r.bytes
		}
		if count == 0 {
			continue
		}
		rep.Ops[opNames[op]] = opSummary(hist, count, errs, bytes, sec)
		totalHist.Merge(hist)
		total.Count += count
		total.Errors += errs
		total.Bytes += bytes
	}
	rep.Total = opSummary(totalHist, total.Count, total.Errors, total.Bytes, sec)
	rep.Errors = total.Errors
	return rep
}

func opSummary(h *metrics.Histogram, count, errs, bytes int64, sec float64) Op {
	s := h.Snapshot()
	op := Op{
		Count: count, Errors: errs, Bytes: bytes,
		P50ms: ms(s.P50), P90ms: ms(s.P90), P99ms: ms(s.P99),
		P999ms: ms(s.P999), MaxMs: ms(s.Max), MeanMs: round3(s.Mean / 1e6),
	}
	if sec > 0 {
		op.OpsPerS = round3(float64(count) / sec)
		op.MBPerS = round3(float64(bytes) / sec / (1 << 20))
	}
	return op
}

// writeReport emits the JSON document to path ("" or "-" = stdout).
func writeReport(rep *Report, path string) error {
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// printSummary writes the human-readable digest (stderr, so a piped
// stdout stays pure JSON).
func printSummary(w io.Writer, rep *Report, workers []*worker) {
	fmt.Fprintf(w, "cloudbench: %s · %d workers · mix %s\n", rep.Target, rep.Config.Workers, rep.Config.Mix)
	for op := opKind(0); op < opCount; op++ {
		o, ok := rep.Ops[opNames[op]]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-7s %7d ops %4d err  p50 %8.2fms  p99 %8.2fms  p99.9 %8.2fms  %8.1f ops/s %8.2f MB/s\n",
			opNames[op], o.Count, o.Errors, o.P50ms, o.P99ms, o.P999ms, o.OpsPerS, o.MBPerS)
	}
	o := rep.Total
	fmt.Fprintf(w, "  %-7s %7d ops %4d err  p50 %8.2fms  p99 %8.2fms  p99.9 %8.2fms  %8.1f ops/s %8.2f MB/s\n",
		"total", o.Count, o.Errors, o.P50ms, o.P99ms, o.P999ms, o.OpsPerS, o.MBPerS)
	for op := opKind(0); op < opCount; op++ {
		for _, wk := range workers {
			if err := wk.recs[op].firstErr; err != nil {
				fmt.Fprintf(w, "  first %s error: %v\n", opNames[op], err)
				break
			}
		}
	}
}
