package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func smokeConfig() config {
	return config{
		localN:     5,
		workers:    4,
		duration:   1200 * time.Millisecond,
		warmup:     200 * time.Millisecond,
		mix:        "put=10,get=35,range=15,update=10,remove=10,sput=10,sget=10",
		sizes:      "2KiB=70,16KiB=30",
		tenants:    2,
		keys:       6,
		pl:         2,
		seed:       3,
		interval:   250 * time.Millisecond,
		hedgeAfter: 20 * time.Millisecond,
	}
}

// TestCloudbenchSmoke runs a short mixed workload against an in-process
// loopback fleet and checks the report is complete and error-free — the
// same configuration shape the CI bench-loadsmoke target uses.
func TestCloudbenchSmoke(t *testing.T) {
	rep, err := run(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("op errors under clean fleet: %d (%+v)", rep.Errors, rep.Ops)
	}
	if rep.Total.Count == 0 {
		t.Fatal("no operations measured")
	}
	for _, op := range []string{"put", "get", "range", "update", "remove", "sput", "sget"} {
		o, ok := rep.Ops[op]
		if !ok {
			t.Fatalf("op %q missing from report (ops: %v)", op, rep.Ops)
		}
		if o.Count == 0 {
			t.Fatalf("op %q measured zero times", op)
		}
		if o.P50ms > o.P99ms || o.P99ms > o.P999ms || o.P999ms > o.MaxMs {
			t.Fatalf("op %q percentiles not ordered: %+v", op, o)
		}
		if o.P50ms <= 0 {
			t.Fatalf("op %q p50 = %v, want > 0", op, o.P50ms)
		}
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("empty throughput timeline")
	}
	var tlOps float64
	for _, p := range rep.Timeline {
		tlOps += p.OpsPerS * 0.25
	}
	if tlOps == 0 {
		t.Fatal("timeline recorded no throughput")
	}
	if rep.Schema != "cloudbench/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if !strings.Contains(rep.Target, "in-process fleet (5 providers)") {
		t.Fatalf("target = %q", rep.Target)
	}
	if rep.Config.Providers != 5 || rep.Config.Workers != 4 {
		t.Fatalf("config echo = %+v", rep.Config)
	}
}

// TestCloudbenchShardedSmoke drives the same short workload through a
// 2-distributor consistent-hash namespace: every op class must still
// complete error-free when files route across shards.
func TestCloudbenchShardedSmoke(t *testing.T) {
	cfg := smokeConfig()
	cfg.dists = 2
	cfg.localN = 3
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("op errors under sharded fleet: %d (%+v)", rep.Errors, rep.Ops)
	}
	if rep.Total.Count == 0 {
		t.Fatal("no operations measured")
	}
	if rep.Config.Distributors != 2 || rep.Config.Providers != 3 {
		t.Fatalf("config echo = %+v", rep.Config)
	}
	if !strings.Contains(rep.Target, "2 distributors") {
		t.Fatalf("target = %q", rep.Target)
	}
}

func TestParseMixAndSizes(t *testing.T) {
	if _, err := parseMix("put=1,get=2,range=3,update=4,remove=5"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "put", "fly=3", "put=x", "put=0,get=0", "put=9223372036854775807,get=1"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) accepted", bad)
		}
	}
	d, err := parseSizes("512B=1,4KiB=2,1MiB=3,1GiB=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{512, 4096, 1 << 20, 1 << 30}
	for i, sz := range d.sizes {
		if sz != want[i] {
			t.Fatalf("sizes[%d] = %d, want %d", i, sz, want[i])
		}
	}
	for _, bad := range []string{"", "4KiB", "0KiB=1", "-4B=1", "4KiB=0", "9000000000GiB=1", "4KiB=9223372036854775807,8KiB=1"} {
		if _, err := parseSizes(bad); err == nil {
			t.Fatalf("parseSizes(%q) accepted", bad)
		}
	}
}

func TestParseConfigValidation(t *testing.T) {
	if _, err := parseConfig([]string{"-workers", "0"}); err == nil {
		t.Fatal("workers=0 accepted")
	}
	if _, err := parseConfig([]string{"-warmup", "10s", "-duration", "5s"}); err == nil {
		t.Fatal("warmup >= duration accepted")
	}
	if _, err := parseConfig([]string{"-pl", "9"}); err == nil || errors.Is(err, errSyntax) {
		t.Fatalf("pl=9: err = %v, want a validation error for main to print", err)
	}
	cfg, err := parseConfig([]string{"-duration", "3s", "-warmup", "500ms", "-strict"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.strict || cfg.duration != 3*time.Second {
		t.Fatalf("cfg = %+v", cfg)
	}
}
