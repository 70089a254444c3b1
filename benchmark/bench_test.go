package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range workloads(false) {
		a, b, c := sequenceHash(sp, 7, 500), sequenceHash(sp, 7, 500), sequenceHash(sp, 8, 500)
		if a != b {
			t.Errorf("%s: seed 7 gave %s then %s", sp.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence %s", sp.name, a)
		}
	}
}

func TestFillIsRandomAccess(t *testing.T) {
	whole := make([]byte, 1000)
	fill(whole, 42, 0)
	for _, w := range [][2]int{{0, 1000}, {3, 5}, {7, 9}, {8, 16}, {13, 987}, {999, 1}} {
		part := make([]byte, w[1])
		fill(part, 42, w[0])
		if !bytes.Equal(part, whole[w[0]:w[0]+w[1]]) {
			t.Errorf("fill at offset %d length %d differs from the whole stream", w[0], w[1])
		}
	}
	o := object{size: 1000, seed: 42, patch: 43, patchLen: 100}
	got := make([]byte, 200)
	o.read(got, 50)
	want := make([]byte, 200)
	fill(want[:50], 43, 50)
	fill(want[50:], 42, 100)
	if !bytes.Equal(got, want) {
		t.Error("object.read does not lay the updated chunk 0 over the original stream")
	}
}

// A percentile is printed only when at least ten samples lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, ok := median(ramp(19)); ok {
		t.Error("median of 19 samples was reported")
	}
	if v, ok := median(ramp(20)); !ok || v != 10.5 {
		t.Errorf("median of 1..20 = %v, %v; want 10.5", v, ok)
	}
	if v, ok := median(ramp(21)); !ok || v != 11 {
		t.Errorf("median of 1..21 = %v, %v; want 11", v, ok)
	}
	if _, ok := quantile(ramp(99), 0.90); ok {
		t.Error("p90 of 99 samples was reported")
	}
	if v, ok := quantile(ramp(100), 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, ok)
	}
	if _, ok := tail(ramp(30)); ok {
		t.Error("a tail percentile of 30 samples was reported")
	}
	if m, ok := tail(ramp(1000)); !ok || m.P != 99 || m.N != 1000 || m.Value != 990 {
		t.Errorf("tail of 1..1000 = %+v, %v; want p99 = 990 with n = 1000", m, ok)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	got, ok := iqrShare([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if want := (31.0 - 3.5) / 13.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, %v; want %v", got, ok, want)
	}
}

// BENCHMARK.json is written by hand; it has to say what the code does.
func TestBenchmarkJSONAgreesWithTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []entry  `json:"workloads"`
		EndToEnd  []entry  `json:"end_to_end"`
		PerLayer  []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var want []entry
	for _, sp := range gatedWorkloads(false) {
		want = append(want, entry{Name: sp.name, Why: sp.why})
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", sp.name)
		}
	}
	if !reflect.DeepEqual(doc.Workloads, want) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", doc.Workloads, want)
	}
	check := func(kind string, got []entry, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d entries in BENCHMARK.json, %d in the code", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: json %+v, code %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: bound in json differs from %v", d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, driverMetrics(), true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 3, seconds: 0.6, trace: trace, smoke: true, dir: t.TempDir()}
}

// The smoke pass: every workload boots the real deployment, runs with
// zero failures and reports numbers, so tier-1 notices when a change to
// the APIs breaks the benchmark. No bound is applied to anything.
func TestSmoke(t *testing.T) {
	for _, sp := range workloads(true) {
		r, err := runWorkload(sp, smokeConfig(t, false))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !r.correct() {
			t.Errorf("%s: %d of %d operations failed", sp.name, r.Failed, r.Attempted)
		}
		for _, name := range []string{"setup_s", "ops_per_s", "mb_per_s", "stored_bytes_per_user_byte"} {
			if r.EndToEnd[name].Value <= 0 {
				t.Errorf("%s: %s = %v", sp.name, name, r.EndToEnd[name].Value)
			}
		}
		for name, m := range r.EndToEnd {
			if strings.HasSuffix(name, "_ms") && m.N/2 < minBeyond {
				t.Errorf("%s: %s printed from %d samples", sp.name, name, m.N)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	sp, _ := findSpec("defended-large", true)
	cfg := smokeConfig(t, true)
	r, err := runWorkload(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Errorf("%d of %d operations failed", r.Failed, r.Attempted)
	}
	if _, err := resultLine(r, true); err != nil {
		t.Error(err)
	}
	for _, kind := range []string{"put", "get"} {
		if v := r.PerLayer["provider_calls_per_op."+kind].Value; v < 1 {
			t.Errorf("provider_calls_per_op.%s = %v", kind, v)
		}
	}
	if gap := r.PerLayer["provider_rtt_ms"].Value - r.PerLayer["provider_service_ms"].Value; gap < 0 {
		t.Errorf("provider round trip is %v ms shorter than its service time", -gap)
	}
	if _, err := os.Stat(cfg.dir + "/trace-defended-large.json"); err != nil {
		t.Error(err)
	}
}

// The same seed stores the same bytes: parity, decoys and cipher framing
// are deterministic, so the ratio is exact, not merely close.
func TestStoredBytesRepeatExactly(t *testing.T) {
	sp, _ := findSpec("defended-large", true)
	var ratios []float64
	for i := 0; i < 2; i++ {
		e, err := setUp(sp, 5, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, e.storedPerUserByte)
		e.dep.close()
	}
	if ratios[0] != ratios[1] || ratios[0] <= 1 {
		t.Errorf("stored_bytes_per_user_byte = %v then %v", ratios[0], ratios[1])
	}
}

// corruptingBackend flips one byte of the nth whole-file read.
type corruptingBackend struct {
	backend
	n int
}

func (c *corruptingBackend) GetFile(client, password, filename string) ([]byte, error) {
	data, err := c.backend.GetFile(client, password, filename)
	if c.n--; c.n == 0 && len(data) > 0 {
		data[len(data)/2] ^= 1
	}
	return data, err
}

func TestOneCorruptedReadFailsTheRun(t *testing.T) {
	sp, _ := findSpec("reads-alone", true)
	e, err := setUp(sp, 3, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.dep.close()
	elapsed := e.measure(&corruptingBackend{backend: e.dep.client, n: 5}, 300*time.Millisecond)
	var r runReport
	e.summarize(&r, elapsed, []float64{1}, 0)
	if r.Failed != 1 || r.correct() {
		t.Errorf("one flipped byte in one read: failed = %d of %d, correct = %v", r.Failed, r.Attempted, r.correct())
	}
	if r.Informational["error_share"].Value <= 0 {
		t.Error("error_share stayed 0")
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(ops, put float64, failed int) *runReport {
		return &runReport{Attempted: 100, Failed: failed, EndToEnd: map[string]metric{
			"ops_per_s":  {Value: ops, Unit: "1/s"},
			"put_p50_ms": {Value: put, Unit: "ms"},
		}}
	}
	doc := func(runs ...*runReport) document {
		return document{Workloads: map[string][]*runReport{"w": runs}}
	}
	var out bytes.Buffer
	// 5 % slower and 5 % fewer ops: inside the bounds.
	if compareDocs(doc(run(1000, 2.0, 0)), doc(run(950, 2.1, 0)), &out) {
		t.Errorf("a 5 %% move was called worse:\n%s", out.String())
	}
	// Throughput is higher-is-better: 30 % fewer ops is worse, 20 % more is not.
	if !compareDocs(doc(run(1000, 2.0, 0)), doc(run(700, 2.0, 0)), &out) {
		t.Error("30 % fewer ops/s was not called worse")
	}
	if compareDocs(doc(run(1000, 2.0, 0)), doc(run(1200, 1.5, 0)), &out) {
		t.Error("an improvement was called worse")
	}
	// Any new failure is a regression.
	if !compareDocs(doc(run(1000, 2.0, 0)), doc(run(1000, 2.0, 1)), &out) {
		t.Error("a failed operation was not called worse")
	}
	// Medians agree but the baseline's own runs spread over more than the
	// bound: the row is unresolved, not same, and does not fail.
	out.Reset()
	noisy := doc(run(1000, 1.0, 0), run(1000, 2.0, 0), run(1000, 2.0, 0), run(1000, 3.0, 0))
	if compareDocs(noisy, doc(run(1000, 2.0, 0)), &out) {
		t.Error("a noisy baseline was called worse")
	}
	if !strings.Contains(out.String(), "unresolved (spread") {
		t.Errorf("a spread wider than the bound was not reported as unresolved:\n%s", out.String())
	}
}
