package minecheck

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/localfleet"
	"repro/internal/provider"
	"repro/internal/transport"
)

var (
	flagSeed  = flag.Int64("seed", 0, "run exactly this minecheck seed (0 = sweep)")
	flagSeeds = flag.Int("seeds", 0, "number of seeds to sweep (0 = 32, or 8 with -short)")
)

func sweepSeeds(t *testing.T) []int64 {
	if *flagSeed != 0 {
		return []int64{*flagSeed}
	}
	n := *flagSeeds
	if n == 0 {
		n = 32
		if testing.Short() {
			n = 8
		}
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// dumpArtifact writes a failing campaign's full result to
// $MINECHECK_ARTIFACTS so CI can upload it next to the repro line.
func dumpArtifact(t *testing.T, r *Result, violations []string) {
	dir := os.Getenv("MINECHECK_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("minecheck: cannot create artifact dir: %v", err)
		return
	}
	body, _ := json.MarshalIndent(map[string]any{"result": r, "violations": violations}, "", "  ")
	path := filepath.Join(dir, fmt.Sprintf("minecheck-seed%d.json", r.Seed))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Logf("minecheck: cannot write artifact: %v", err)
		return
	}
	t.Logf("minecheck: failing-seed artifact written to %s", path)
}

// TestMineCheck is the adversary-in-the-loop sweep: for every seed it
// runs the gate cells (defended postures plus the undefended control)
// against the real loopback deployment, holds each defended cell below
// the stored thresholds, and — across the sweep — requires the control
// cell to leak decisively, proving the attacks have teeth. Reproduce
// any failure with the printed repro line, e.g.
//
//	go test ./internal/minecheck -run 'TestMineCheck$' -seed=7
func TestMineCheck(t *testing.T) {
	th := DefaultThresholds()
	var control []Scores
	for _, seed := range sweepSeeds(t) {
		for _, cell := range GateCells() {
			r, err := Run(Config{Seed: seed, Cell: cell})
			if err != nil {
				t.Fatalf("minecheck seed %d cell %s: %v\nrepro: go test ./internal/minecheck -run 'TestMineCheck$' -seed=%d",
					seed, cell, err, seed)
			}
			if v := r.Gate(th); len(v) > 0 {
				dumpArtifact(t, r, v)
				t.Errorf("minecheck gate failed (repro: go test ./internal/minecheck -run 'TestMineCheck$' -seed=%d):\n  %v",
					seed, v)
			}
			if !cell.Gated() {
				control = append(control, r.Scores)
			}
		}
	}
	if t.Failed() || len(control) == 0 {
		return
	}
	// Teeth: on the undefended control the same attacks must succeed,
	// or a gate that "holds" proves nothing. Means over the sweep keep
	// this stable against per-seed mining variance.
	mean := func(f func(Scores) float64) float64 {
		var sum float64
		for _, s := range control {
			sum += f(s)
		}
		return sum / float64(len(control))
	}
	teeth := []struct {
		name  string
		got   float64
		floor float64
	}{
		{"regression (pooled)", mean(func(s Scores) float64 { return s.RegressionPooled }), 0.90},
		{"rule recovery (pooled)", mean(func(s Scores) float64 { return s.RulePooled }), 0.90},
		{"clustering (pooled)", mean(func(s Scores) float64 { return s.ClusterPooled }), 0.40},
		{"naive-bayes (pooled)", mean(func(s Scores) float64 { return s.NBPooled }), 0.35},
		{"knn (pooled)", mean(func(s Scores) float64 { return s.KNNPooled }), 0.25},
	}
	for _, c := range teeth {
		if c.got < c.floor {
			t.Errorf("control cell: mean %s = %.3f below teeth floor %.3f — attacks lost their bite, gate is vacuous",
				c.name, c.got, c.floor)
		}
	}
}

// TestMineCheckDeterministic pins the harness's core promise: same seed
// and cell → byte-identical campaign scores, even though the run goes
// over real loopback HTTP. A sharded cell's ShardCorrelation is the one
// score left out: it follows the random loopback ports (see Run).
func TestMineCheckDeterministic(t *testing.T) {
	cells := []Cell{GateCells()[0], GateCells()[2], GateCells()[3]}
	for _, cell := range cells {
		a, err := Run(Config{Seed: 11, Cell: cell})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(Config{Seed: 11, Cell: cell})
		if err != nil {
			t.Fatal(err)
		}
		if cell.Shards > 1 {
			a.Scores.ShardCorrelation, b.Scores.ShardCorrelation = 0, 0
		}
		if a.Scores != b.Scores {
			t.Errorf("cell %s: scores differ across identical runs:\n  %+v\n  %+v", cell, a.Scores, b.Scores)
		}
		if a.Chunks != b.Chunks || a.Ops != b.Ops {
			t.Errorf("cell %s: chunks/ops differ: %d/%d vs %d/%d", cell, a.Chunks, a.Ops, b.Chunks, b.Ops)
		}
	}
}

// TestMineCheckPlantedLeakTripsGate proves the gate is live: the same
// defended cells with decoy injection silently skipped (data stored
// bare) must trip the gate on every seed — if they don't, the gate
// could never catch a real regression either.
func TestMineCheckPlantedLeakTripsGate(t *testing.T) {
	th := DefaultThresholds()
	for _, seed := range []int64{1, 2, 3} {
		for _, cell := range GateCells() {
			if !cell.Gated() {
				continue
			}
			r, err := Run(Config{Seed: seed, Cell: cell, PlantLeak: true})
			if err != nil {
				t.Fatal(err)
			}
			if v := r.Gate(th); len(v) == 0 {
				t.Errorf("planted leak (no decoys) in cell %s seed %d passed the gate: thresholds are toothless", cell, seed)
			}
		}
	}
}

// TestTimingInvariance is the cache/hedge side-channel unit check: two
// tenants driving identical access scripts over same-sized files must
// produce identical provider-side access *shapes* (per-burst op-count
// multisets with identities erased). If a cache hit, hedge fan-out, or
// placement quirk made one tenant's warm read look different from the
// other's, a provider could tell tenants apart by traffic shape alone.
func TestTimingInvariance(t *testing.T) {
	var ep atomic.Int64
	var spies []*spy
	cluster, err := localfleet.Start(localfleet.Config{
		Shards:    1,
		Providers: 6,
		Hook: func(p *provider.MemProvider) {
			spies = append(spies, newSpy(p, &ep))
		},
		Distributor: func(_ int, c *core.Config) {
			c.Secret = []byte("timing-invariance")
			c.Parallelism = 1
			c.CacheBytes = 4 << 20
			c.HedgeAfter = 5 * time.Second
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sys, err := transport.NewShardedClient(cluster.DistURLs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Same file size for both tenants: 20 KiB spans multiple chunks at
	// PL Moderate, so a read fans out and the shape is non-trivial.
	payload := bytes.Repeat([]byte("account ledger row 0123456789\n"), 700)
	epochsOf := map[string][]int64{}
	for _, tenant := range []string{"alice", "bob"} {
		if err := sys.RegisterClient(tenant); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddPassword(tenant, "pw", 2); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Upload(tenant, "pw", "ledger.dat", payload, 2, transport.UploadOptions{Assurance: 5}); err != nil {
			t.Fatal(err)
		}
	}
	// Identical scripts: one cold read, two warm reads.
	for _, tenant := range []string{"alice", "bob"} {
		for i := 0; i < 3; i++ {
			e := ep.Add(1)
			epochsOf[tenant] = append(epochsOf[tenant], e)
			if _, err := sys.GetFile(tenant, "pw", "ledger.dat"); err != nil {
				t.Fatal(err)
			}
		}
	}

	var all []attack.TimedAccess
	for _, s := range spies {
		all = append(all, s.Trace()...)
	}
	traceFor := func(tenant string) []attack.TimedAccess {
		want := map[int64]bool{}
		for _, e := range epochsOf[tenant] {
			want[e] = true
		}
		var out []attack.TimedAccess
		for _, a := range all {
			if a.Op == "get" && want[a.T] {
				out = append(out, a)
			}
		}
		return out
	}
	alice, bob := attack.AccessPattern(traceFor("alice")), attack.AccessPattern(traceFor("bob"))
	if alice != bob {
		t.Errorf("tenants distinguishable by access shape:\n  alice: %s\n  bob:   %s", alice, bob)
	}
	if alice == "" {
		t.Error("no provider accesses recorded for the cold read; fixture broken")
	}
}
