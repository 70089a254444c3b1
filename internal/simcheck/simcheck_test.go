package simcheck

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	flagSeed  = flag.Int64("seed", 0, "run exactly this simcheck seed (0 = sweep)")
	flagSeeds = flag.Int("seeds", 0, "number of seeds to sweep (0 = 32, or 8 with -short)")
	flagOps   = flag.Int("ops", 0, "ops per run (0 = default)")
)

// seedConfigs is the config each sweep test builds for a seed, on its
// -seed path and in its sweep alike; Violation.Repro names one of them.
var seedConfigs = map[string]func(int64) Config{
	"TestSimCheck$":            DefaultConfig,
	"TestSimCheckCrashRestart": DefaultCrashConfig,
	"TestSimCheckSharded":      DefaultShardConfig,
}

// seedConfig is what `go test -run <test> -seed=N -ops=M` runs.
func seedConfig(test string, seed int64, ops int) Config {
	cfg := seedConfigs[test](seed)
	if ops > 0 {
		cfg.Ops = ops
	}
	return cfg
}

// dumpArtifact writes a failing run's full trace to $SIMCHECK_ARTIFACTS
// so CI can upload it next to the repro line.
func dumpArtifact(t *testing.T, cfg Config, v *Violation) {
	dir := os.Getenv("SIMCHECK_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("simcheck: cannot create artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.txt", strings.TrimSuffix(v.Repro, "$"), cfg.Seed))
	body := v.Error() + "\n\nfull trace:\n" + strings.Join(v.Trace, "\n") + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("simcheck: cannot write artifact: %v", err)
		return
	}
	t.Logf("simcheck: failing-seed artifact written to %s", path)
}

func runSeed(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		var v *Violation
		if errors.As(err, &v) {
			dumpArtifact(t, cfg, v)
		}
		t.Fatalf("%v", err)
	}
	return res
}

// sweep runs test's config for the -seed seed, or else for seeds 1..32
// (8 with -short, -seeds to override), holding each run to check. It
// returns the results of the runs that passed.
func sweep(t *testing.T, test string, check func(t *testing.T, res Result)) []Result {
	seeds := []int64{*flagSeed}
	if *flagSeed == 0 {
		n := *flagSeeds
		if n == 0 {
			n = 32
			if testing.Short() {
				n = 8
			}
		}
		seeds = seeds[:0]
		for s := int64(1); s <= int64(n); s++ {
			seeds = append(seeds, s)
		}
	}
	var out []Result
	for _, s := range seeds {
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			res := runSeed(t, seedConfig(test, s, *flagOps))
			t.Logf("trace=%s uploads=%d/%d reads=%d/%d restarts=%d faults=%+v",
				res.TraceHash[:16], res.UploadsOK, res.UploadsAttempted, res.ReadsOK, res.ReadsAttempted,
				res.Restarts, res.Faults)
			if res.UploadsOK == 0 {
				t.Fatalf("no upload ever succeeded (%d attempted)", res.UploadsAttempted)
			}
			if res.Checkpoints == 0 {
				t.Fatal("no checkpoint ran")
			}
			check(t, res)
			out = append(out, res)
		})
	}
	return out
}

// TestSimCheck sweeps seeded fault schedules against the invariant
// oracle. Reproduce any failure with the printed repro line, e.g.
//
//	go test ./internal/simcheck -run 'TestSimCheck$' -seed=7 -ops=300
func TestSimCheck(t *testing.T) {
	sweep(t, "TestSimCheck$", func(t *testing.T, res Result) {
		if res.StreamUploads == 0 || res.StreamReads == 0 {
			t.Fatalf("streaming paths unexercised (ustream=%d getfileto=%d)", res.StreamUploads, res.StreamReads)
		}
	})
}

// TestSimCheckCrashRestart sweeps seeded fault schedules with periodic
// distributor crashes: the process dies without warning (no drain, no
// final checkpoint), re-opens from its WAL directory, and every oracle
// invariant must hold against the recovered state. Reproduce a failure
// with the printed repro line, e.g.
//
//	go test ./internal/simcheck -run 'TestSimCheckCrashRestart' -seed=7 -ops=300
func TestSimCheckCrashRestart(t *testing.T) {
	sweep(t, "TestSimCheckCrashRestart", func(t *testing.T, res Result) {
		if res.Restarts == 0 {
			t.Fatal("no crash-restart cycle ran")
		}
		if !res.Metrics.WAL.Enabled {
			t.Fatal("crash-restart run was not durable")
		}
	})
}

// TestSimCheckSharded sweeps the sharded topology: 3- and 4-shard
// namespaces behind the production ring, each shard a primary and a
// follower of its WAL, under follower partitions, primary outages and
// primary crash-restarts. Every checkpoint runs the full oracle per shard
// plus the replication and isolation checks. With provider faults off a
// read must never fail — mid-window, a down primary's reads are a
// follower's. Reproduce any failure with the printed repro line, e.g.
//
//	go test ./internal/simcheck -run 'TestSimCheckSharded' -seed=7 -ops=240
func TestSimCheckSharded(t *testing.T) {
	results := sweep(t, "TestSimCheckSharded", func(t *testing.T, res Result) {
		if res.ReadsOK != res.ReadsAttempted {
			t.Fatalf("%d of %d reads failed; with a follower up every sharded read must succeed",
				res.ReadsAttempted-res.ReadsOK, res.ReadsAttempted)
		}
		if res.Replicated == 0 {
			t.Fatal("no follower ever applied a record")
		}
		if res.StreamUploads == 0 || res.StreamReads == 0 || res.Scrubs == 0 || res.Decommissions == 0 {
			t.Fatalf("op kinds unexercised: %+v", res)
		}
	})
	if *flagSeed != 0 || t.Failed() {
		return
	}
	// Individual seeds may draw no window of one class; the sweep as a
	// whole must exercise all three or the oracle is checking nothing.
	var partitions, primaryDowns, restarts int
	for _, res := range results {
		partitions += res.FollowerOutages
		primaryDowns += res.PrimaryOutages
		restarts += res.Restarts
	}
	if partitions == 0 || primaryDowns == 0 || restarts == 0 {
		t.Fatalf("sweep exercised partitions=%d primary-downs=%d restarts=%d; every fault class must fire",
			partitions, primaryDowns, restarts)
	}
}

// requireReplay runs cfg twice and demands bit-identical results: the
// repro line is only honest if a seed replays the run exactly.
func requireReplay(t *testing.T, cfg Config) Result {
	t.Helper()
	a, b := runSeed(t, cfg), runSeed(t, cfg)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("seed %d: trace hashes differ across identical runs: %s vs %s", cfg.Seed, a.TraceHash, b.TraceHash)
	}
	if a != b {
		t.Fatalf("seed %d: results differ across identical runs:\n  %+v\n  %+v", cfg.Seed, a, b)
	}
	return a
}

// TestSimCheckDeterministic runs the same config twice and demands an
// identical op/fault trace.
func TestSimCheckDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 4} { // one cache-on seed, one cache-off
		cfg := DefaultConfig(seed)
		cfg.Ops = 240
		requireReplay(t, cfg)
	}
}

// TestSimCheckCrashRestartDeterministic demands that a durable run —
// including its recovery traces — replays bit-identically.
func TestSimCheckCrashRestartDeterministic(t *testing.T) {
	cfg := DefaultCrashConfig(5)
	cfg.Ops = 240
	if requireReplay(t, cfg).Restarts == 0 {
		t.Fatal("no restart ran; determinism check is vacuous")
	}
}

// TestSimCheckShardedDeterministic demands that a sharded run — topology
// windows, crash recoveries and all — replays bit-identically.
func TestSimCheckShardedDeterministic(t *testing.T) {
	cfg := DefaultShardConfig(6)
	cfg.Ops = 180
	if res := requireReplay(t, cfg); res.FollowerOutages+res.PrimaryOutages+res.Restarts == 0 {
		t.Fatal("no fault window fired; determinism check is vacuous")
	}
}

// TestSimCheckReproReplays holds the repro line to its word: the test a
// default config's violations name must, through its -seed path, rebuild
// a config that replays the same trace.
func TestSimCheckReproReplays(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{DefaultConfig(9), "TestSimCheck$"},
		{DefaultCrashConfig(9), "TestSimCheckCrashRestart"},
		{DefaultShardConfig(9), "TestSimCheckSharded"},
	} {
		tc.cfg.Ops = 90
		if got := tc.cfg.repro(); got != tc.want {
			t.Fatalf("repro for %+v = %q, want %q", tc.cfg, got, tc.want)
		}
		a, b := runSeed(t, tc.cfg), runSeed(t, seedConfig(tc.want, tc.cfg.Seed, tc.cfg.Ops))
		if a.TraceHash != b.TraceHash {
			t.Fatalf("%s -seed=%d -ops=%d replays trace %s, the run had %s",
				tc.want, tc.cfg.Seed, tc.cfg.Ops, b.TraceHash, a.TraceHash)
		}
	}
}

// TestSimCheckCatchesLostCommit plants the classic lost-commit bug —
// the WAL acknowledges records at SyncAlways without fsyncing them, so
// a crash forgets acknowledged commits — and requires the post-recovery
// oracle checkpoint to catch it with a crash-restart repro line.
func TestSimCheckCatchesLostCommit(t *testing.T) {
	cfg := DefaultCrashConfig(2)
	cfg.Ops = 200
	cfg.BugLoseLastCommit = true
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("a run that loses every acknowledged commit on crash passed the oracle — recovery checking has no teeth")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected a *Violation, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "TestSimCheckCrashRestart") {
		t.Fatalf("violation carries no crash-restart repro line: %v", err)
	}
	t.Logf("planted lost-commit bug caught (invariant %q): %s", v.Invariant, strings.SplitN(err.Error(), "\n", 2)[0])
}

// TestSimCheckCatchesDroppedRollbackDelete plants the classic rollback
// bug — provider deletes acknowledged but silently dropped — and
// requires the orphan invariant to catch it with a repro line.
func TestSimCheckCatchesDroppedRollbackDelete(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Ops = 200
	cfg.BugDropDeletes = true
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("a run that silently drops every provider delete passed the oracle — the orphan invariant has no teeth")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected a *Violation, got %T: %v", err, err)
	}
	if v.Invariant != "orphans" {
		t.Fatalf("expected the orphan invariant to trip, got %q: %v", v.Invariant, err)
	}
	if !strings.Contains(err.Error(), "go test ./internal/simcheck") {
		t.Fatalf("violation carries no repro line: %v", err)
	}
	t.Logf("planted bug caught: %s", strings.SplitN(err.Error(), "\n", 2)[0])
}

// TestSimCheckShardedCatchesDroppedDelete plants the same rollback bug
// in a sharded run: the per-shard orphan audit must stop it, with a
// sharded repro line.
func TestSimCheckShardedCatchesDroppedDelete(t *testing.T) {
	cfg := DefaultShardConfig(1)
	cfg.BugDropDeletes = true
	_, err := Run(cfg)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("a sharded run that silently drops every provider delete returned %v, want an orphans violation", err)
	}
	if v.Invariant != "orphans" || v.Repro != "TestSimCheckSharded" {
		t.Fatalf("expected the orphan invariant to trip with a sharded repro, got %q (%s): %v", v.Invariant, v.Repro, err)
	}
	t.Logf("planted bug caught: %s", strings.SplitN(err.Error(), "\n", 2)[0])
}

// TestSimCheckDarkProvider is the sustained-outage scenario on the
// harness: provider 0 stays "up" but fails every
// data-plane op for the whole run. Failover and circuit breaking must
// keep the workload healthy and every invariant intact.
func TestSimCheckDarkProvider(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.Ops = 240
	cfg.DarkProvider = true
	// Isolate the dark provider's effect: no other faults.
	cfg.PutFailRate, cfg.GetFailRate, cfg.DeleteFailRate = 0, 0, 0
	cfg.CorruptRate, cfg.DelayRate = 0, 0
	cfg.BlackoutRate, cfg.PartitionRate, cfg.OutageRate, cfg.CrashRate = 0, 0, 0, 0
	cfg.RotPerCheckpoint = 0
	res := runSeed(t, cfg)
	if res.UploadsAttempted == 0 {
		t.Fatal("no uploads attempted")
	}
	if ratio := float64(res.UploadsOK) / float64(res.UploadsAttempted); ratio < 0.9 {
		t.Fatalf("upload success %d/%d under a single dark provider; failover should carry the fleet",
			res.UploadsOK, res.UploadsAttempted)
	}
	if res.Metrics.WriteFailovers == 0 {
		t.Fatal("WriteFailovers = 0: the dark provider was never even tried, scenario is vacuous")
	}
	if res.Metrics.CircuitOpens == 0 {
		t.Fatal("CircuitOpens = 0: the breaker never isolated the dark provider")
	}
}
