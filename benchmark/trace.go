package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/provider"
)

// Tracing lives entirely in this directory: spans are recorded around
// the calls the benchmark makes into each layer's public functions, kept
// in memory, and written out when the run ends. What cannot be seen from
// outside — time waiting for and holding the distributor's lock, fsync
// time, JSON time inside a handler — is not here; read_p90_ms on
// reads-under-write is its outside proxy.

const (
	layerClient  = "client"           // a transport.Client call
	layerCore    = "core"             // the same call made directly on core.Distributor
	layerRTT     = "provider_rtt"     // a RemoteProvider call, as the distributor sees it
	layerService = "provider_service" // the MemProvider call under the provider's server
)

// span is one timed call. Spans caused by the same workload operation
// share its ID; with one operation in flight at a time, that is simply
// the operation running when the span was recorded.
type span struct {
	ID    int64  `json:"id"`
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int    `json:"bytes"`
}

type recorder struct {
	epoch   time.Time
	current atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func (r *recorder) add(layer, op string, start, end time.Time, bytes int) {
	s := span{r.current.Load(), layer, op, int64(start.Sub(r.epoch)), int64(end.Sub(r.epoch)), bytes}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timedProvider records a span around each data-plane call of the
// provider it wraps.
type timedProvider struct {
	provider.Provider
	rec   *recorder
	layer string
}

func (t *timedProvider) Put(key string, data []byte) error {
	start := time.Now()
	err := t.Provider.Put(key, data)
	t.rec.add(t.layer, "put", start, time.Now(), len(data))
	return err
}

func (t *timedProvider) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := t.Provider.Get(key)
	t.rec.add(t.layer, "get", start, time.Now(), len(data))
	return data, err
}

func (t *timedProvider) Delete(key string) error {
	start := time.Now()
	err := t.Provider.Delete(key)
	t.rec.add(t.layer, "delete", start, time.Now(), 0)
	return err
}

// perLayer is the flat per-layer list BENCHMARK.json repeats; the table
// per operation class behind it is in the report's "layers". None of
// these is gated.
var perLayer = []metricDef{
	{name: "transport_self_ms.put", unit: "ms", better: "lower"},
	{name: "transport_self_ms.get", unit: "ms", better: "lower"},
	{name: "core_self_ms.put", unit: "ms", better: "lower"},
	{name: "core_self_ms.get", unit: "ms", better: "lower"},
	{name: "provider_rtt_ms", unit: "ms", better: "lower"},
	{name: "provider_service_ms", unit: "ms", better: "lower"},
	{name: "provider_calls_per_op.put", unit: "count", better: "lower"},
	{name: "provider_calls_per_op.get", unit: "count", better: "lower"},
	{name: "provider_bytes_per_user_byte", unit: "B/B", better: "lower"},
	{name: "wal_records_per_op", unit: "count", better: "lower"},
	{name: "wal_fsyncs_per_op", unit: "count", better: "lower"},
	{name: "wal_checkpoints", unit: "count", better: "lower"},
	{name: "wal_append_us", unit: "us", better: "lower"},
	{name: "chunker_split_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "chunker_reassemble_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "raid_parity_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "raid_reconstruct_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "mislead_inject_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "mislead_strip_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "crypt_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "kernel_share_of_core.put", unit: "ratio", better: "lower"},
	{name: "kernel_share_of_core.get", unit: "ratio", better: "lower"},
	{name: "hedged_reads", unit: "count", better: "lower"},
	{name: "transient_retries", unit: "count", better: "lower"},
	{name: "reconstructions", unit: "count", better: "lower"},
	{name: "trace_overhead_share", unit: "ratio", better: "lower"},
}

// runTraced produces the per-layer table. It makes three single-worker
// passes over the workload's operation sequence, each a third of the
// window: through the client on an unwrapped deployment (the untraced
// reference), through the client on a deployment with timing wrappers
// around every provider, and directly on that deployment's
// core.Distributor.
//
// Counts (provider calls, provider bytes, WAL records per operation) are
// taken over the first sp.countOps operations of the traced client pass
// only: a fixed stretch of a seeded sequence, so they repeat exactly from
// run to run unless a timer-driven hedge fired, which is printed.
func runTraced(sp spec, cfg runConfig, window time.Duration, r *runReport) error {
	pass := window / 3
	// The kernels are timed first, on a quiet heap: after the passes the
	// collector may be busy with whatever the system under test retained.
	k := timeKernels(sp)

	plain, err := setUp(sp, cfg.seed, cfg.dir, nil)
	if err != nil {
		return err
	}
	var untraced [numKinds][]float64
	plain.serialPass(plain.dep.client, pass, func(kind opKind, _ time.Time, lat time.Duration, _ int) {
		untraced[kind] = append(untraced[kind], ms(lat))
	})
	plain.dep.close()
	plain.count(r)

	rec := &recorder{epoch: time.Now()}
	e, err := setUp(sp, cfg.seed, cfg.dir, rec)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			e.dep.close()
		}
	}()
	rec.mu.Lock()
	rec.spans = rec.spans[:0] // set-up traffic is not part of any pass
	rec.mu.Unlock()

	before := e.dep.dist.Metrics()
	counted := before // the counters when the counted stretch ended
	var (
		nextID  int64
		opBytes [numKinds]int64
		ops     [numKinds]int
	)
	record := func(layer string) func(opKind, time.Time, time.Duration, int) {
		return func(k opKind, start time.Time, lat time.Duration, size int) {
			rec.add(layer, k.String(), start, start.Add(lat), size)
			nextID++
			rec.current.Store(nextID)
			ops[k]++
			opBytes[k] += int64(size)
			if nextID == int64(sp.countOps) {
				counted = e.dep.dist.Metrics()
			}
		}
	}
	e.serialPass(e.dep.client, pass, record(layerClient))
	if nextID < int64(sp.countOps) {
		counted = e.dep.dist.Metrics()
	}
	countedOps := min(nextID, int64(sp.countOps))
	e.serialPass(coreBackend{e.dep.dist}, pass, record(layerCore))
	after := e.dep.dist.Metrics()
	recordBytes := walRecordBytes(e.dep.walDir, after.WAL)
	e.count(r)
	e.dep.close()
	closed = true
	runtime.GC()

	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	t := analyze(spans, countedOps)

	perOp := func(delta int64) float64 { return float64(delta) / float64(max(countedOps, 1)) }
	r.PerLayer = map[string]metric{
		"provider_rtt_ms":              {Value: rawMedian(t.rtt), Unit: "ms", N: len(t.rtt)},
		"provider_service_ms":          {Value: rawMedian(t.service), Unit: "ms", N: len(t.service)},
		"provider_bytes_per_user_byte": {Value: float64(t.provBytes) / float64(max(t.userBytes, 1)), Unit: "B/B", N: int(countedOps)},
		"wal_records_per_op":           {Value: perOp(counted.WAL.Records - before.WAL.Records), Unit: "count", N: int(countedOps)},
		"wal_fsyncs_per_op":            {Value: perOp(counted.WAL.Fsyncs - before.WAL.Fsyncs), Unit: "count", N: int(countedOps)},
		"wal_checkpoints":              {Value: float64(after.WAL.Checkpoints - before.WAL.Checkpoints), Unit: "count"},
		"hedged_reads":                 {Value: float64(after.HedgedReads - before.HedgedReads), Unit: "count"},
		"transient_retries":            {Value: float64(after.TransientRetries - before.TransientRetries), Unit: "count"},
		"reconstructions":              {Value: float64(after.Reconstructions - before.Reconstructions), Unit: "count"},
	}
	r.Informational = map[string]metric{
		"primary_hits_per_op":        {Value: perOp(counted.PrimaryHits - before.PrimaryHits), Unit: "count", N: int(countedOps)},
		"mirror_hits_per_op":         {Value: perOp(counted.MirrorHits - before.MirrorHits), Unit: "count", N: int(countedOps)},
		"write_failovers":            {Value: float64(after.WriteFailovers - before.WriteFailovers), Unit: "count"},
		"wal_record_bytes":           {Value: recordBytes, Unit: "B"},
		"stored_bytes_per_user_byte": {Value: e.storedPerUserByte, Unit: "B/B"},
	}
	batch := 1.0
	if f := after.WAL.Fsyncs - before.WAL.Fsyncs; f > 0 {
		batch = float64(after.WAL.Records-before.WAL.Records) / float64(f)
	}
	appendUS, err := walAppendCost(cfg.dir, int(recordBytes), int(batch+0.5))
	if err != nil {
		return err
	}
	r.PerLayer["wal_append_us"] = metric{Value: appendUS, Unit: "us"}

	for name, v := range k.perByte {
		r.PerLayer[name] = metric{Value: v, Unit: "ns/B"}
	}

	// The table per operation class, and the flat names derived from it.
	r.Layers = map[string]map[string]metric{}
	var overheads []float64
	for kind := opKind(0); kind < numKinds; kind++ {
		c := t.class[kind.String()]
		if c == nil || len(c.client) == 0 || len(c.core) == 0 {
			continue
		}
		row := map[string]metric{
			"client_ms":         {Value: rawMedian(c.client), Unit: "ms", N: len(c.client)},
			"core_ms":           {Value: rawMedian(c.core), Unit: "ms", N: len(c.core)},
			"core_self_ms":      {Value: rawMedian(c.coreSelf), Unit: "ms", N: len(c.coreSelf)},
			"user_bytes_per_op": {Value: float64(opBytes[kind]) / float64(max(ops[kind], 1)), Unit: "B", N: ops[kind]},
		}
		if c.countedOps > 0 {
			row["provider_calls_per_op"] = metric{Value: float64(c.calls) / float64(c.countedOps), Unit: "count", N: c.countedOps}
		}
		row["transport_self_ms"] = metric{Value: row["client_ms"].Value - row["core_ms"].Value, Unit: "ms"}
		if un := untraced[kind]; len(un) > 0 {
			row["untraced_client_ms"] = metric{Value: rawMedian(un), Unit: "ms", N: len(un)}
			share := row["client_ms"].Value/rawMedian(un) - 1
			row["trace_overhead_share"] = metric{Value: share, Unit: "ratio"}
			overheads = append(overheads, share)
		}
		if est, ok := k.estimate(sp, kind, row["user_bytes_per_op"].Value); ok {
			row["kernel_est_ms"] = metric{Value: est, Unit: "ms"}
			row["kernel_share_of_core"] = metric{Value: est / row["core_ms"].Value, Unit: "ratio"}
		}
		r.Layers[kind.String()] = row
		for _, name := range []string{"transport_self_ms", "core_self_ms", "provider_calls_per_op", "kernel_share_of_core"} {
			if m, ok := row[name]; ok {
				r.PerLayer[name+"."+kind.String()] = m
			}
		}
	}
	r.PerLayer["trace_overhead_share"] = metric{Value: rawMedian(overheads), Unit: "ratio", N: len(overheads)}

	// The file holds the table and the spans, earliest first; a long run
	// records hundreds of thousands, so it keeps the first maxFileSpans
	// (the counted stretch is at the front) and says how many there were.
	const maxFileSpans = 100_000
	data, err := json.Marshal(struct {
		Workload   string     `json:"workload"`
		Seed       int64      `json:"seed"`
		Note       string     `json:"note"`
		Report     *runReport `json:"report"`
		SpansTotal int        `json:"spans_total"`
		Spans      []span     `json:"spans"`
	}{sp.name, cfg.seed,
		"times are ns since the traced deployment booted; spans with the same id belong to one workload operation; layer client/core is the operation itself, provider_rtt a RemoteProvider call made for it, provider_service the MemProvider call under that provider's HTTP server",
		r, len(spans), spans[:min(len(spans), maxFileSpans)]})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.dir, "trace-"+sp.name+".json"), data, 0o644)
}

// count adds a finished environment's operation counts to the report.
func (e *env) count(r *runReport) {
	for _, w := range e.workers {
		r.Attempted += w.attempted
		r.Failed += w.failed
	}
}

type classStats struct {
	client   []float64 // client-pass operation times, ms
	core     []float64 // direct-core operation times, ms
	coreSelf []float64 // direct-core time not covered by provider round trips, ms
	// calls is the provider round trips made for the countedOps
	// operations of this class inside the counted stretch.
	calls      int
	countedOps int
}

type traceStats struct {
	rtt, service []float64
	// provBytes and userBytes cover the counted stretch only.
	provBytes, userBytes int64
	class                map[string]*classStats
}

// analyze groups spans by operation. A layer's self time is its span's
// duration minus the part of that interval its child spans cover. Counts
// are taken over operations with id < counted.
func analyze(spans []span, counted int64) traceStats {
	t := traceStats{class: map[string]*classStats{}}
	children := map[int64][]span{}
	var opSpans []span
	for _, s := range spans {
		switch s.Layer {
		case layerRTT:
			t.rtt = append(t.rtt, float64(s.End-s.Start)/1e6)
			children[s.ID] = append(children[s.ID], s)
			if s.ID < counted {
				t.provBytes += int64(s.Bytes)
			}
		case layerService:
			t.service = append(t.service, float64(s.End-s.Start)/1e6)
		default:
			opSpans = append(opSpans, s)
		}
	}
	for _, o := range opSpans {
		c := t.class[o.Op]
		if c == nil {
			c = &classStats{}
			t.class[o.Op] = c
		}
		kids := children[o.ID]
		if o.ID < counted {
			c.calls += len(kids)
			c.countedOps++
			t.userBytes += int64(o.Bytes)
		}
		dur := float64(o.End-o.Start) / 1e6
		if o.Layer == layerClient {
			c.client = append(c.client, dur)
			continue
		}
		c.core = append(c.core, dur)
		c.coreSelf = append(c.coreSelf, dur-float64(covered(o, kids))/1e6)
	}
	return t
}

// covered is the length of the union of the child intervals, clipped to
// the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// walRecordBytes estimates the size of one WAL record as the benchmark
// can see it: the bytes of the live segment over the records it holds.
func walRecordBytes(dir string, w core.WALStats) float64 {
	if w.SinceCheckpoint == 0 {
		return 0
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var size int64
	for _, s := range segs {
		if st, err := os.Stat(s); err == nil {
			size += st.Size()
		}
	}
	return float64(size) / float64(w.SinceCheckpoint)
}
