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
	path := filepath.Join(dir, fmt.Sprintf("simcheck-seed%d.txt", cfg.Seed))
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

// TestSimCheck sweeps seeded fault schedules against the invariant
// oracle. Reproduce any failure with the printed repro line, e.g.
//
//	go test ./internal/simcheck -run 'TestSimCheck$' -seed=7 -ops=300
func TestSimCheck(t *testing.T) {
	if *flagSeed != 0 {
		cfg := DefaultConfig(*flagSeed)
		if *flagOps > 0 {
			cfg.Ops = *flagOps
		}
		res := runSeed(t, cfg)
		t.Logf("seed=%d trace=%s uploads=%d/%d reads=%d/%d faults=%+v",
			res.Seed, res.TraceHash[:16], res.UploadsOK, res.UploadsAttempted,
			res.ReadsOK, res.ReadsAttempted, res.Faults)
		return
	}
	seeds := *flagSeeds
	if seeds == 0 {
		seeds = 32
		if testing.Short() {
			seeds = 8
		}
	}
	for s := int64(1); s <= int64(seeds); s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			cfg := DefaultConfig(s)
			if *flagOps > 0 {
				cfg.Ops = *flagOps
			}
			res := runSeed(t, cfg)
			if res.UploadsOK == 0 {
				t.Fatalf("seed %d: no upload ever succeeded (%d attempted)", s, res.UploadsAttempted)
			}
			if res.StreamUploads == 0 || res.StreamReads == 0 {
				t.Fatalf("seed %d: streaming paths unexercised (ustream=%d getfileto=%d)",
					s, res.StreamUploads, res.StreamReads)
			}
			if res.Checkpoints == 0 {
				t.Fatalf("seed %d: no checkpoint ran", s)
			}
		})
	}
}

// TestSimCheckCrashRestart sweeps seeded fault schedules with periodic
// distributor crashes: the process dies without warning (no drain, no
// final checkpoint), re-opens from its WAL directory, and every oracle
// invariant must hold against the recovered state. Reproduce a failure
// with the printed repro line, e.g.
//
//	go test ./internal/simcheck -run 'TestSimCheckCrashRestart' -seed=7 -ops=300
func TestSimCheckCrashRestart(t *testing.T) {
	if *flagSeed != 0 {
		cfg := DefaultCrashConfig(*flagSeed)
		if *flagOps > 0 {
			cfg.Ops = *flagOps
		}
		res := runSeed(t, cfg)
		t.Logf("seed=%d trace=%s restarts=%d uploads=%d/%d reads=%d/%d",
			res.Seed, res.TraceHash[:16], res.Restarts, res.UploadsOK, res.UploadsAttempted,
			res.ReadsOK, res.ReadsAttempted)
		return
	}
	seeds := *flagSeeds
	if seeds == 0 {
		seeds = 32
		if testing.Short() {
			seeds = 8
		}
	}
	for s := int64(1); s <= int64(seeds); s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			cfg := DefaultCrashConfig(s)
			if *flagOps > 0 {
				cfg.Ops = *flagOps
			}
			res := runSeed(t, cfg)
			if res.Restarts == 0 {
				t.Fatalf("seed %d: no crash-restart cycle ran", s)
			}
			if res.UploadsOK == 0 {
				t.Fatalf("seed %d: no upload ever succeeded (%d attempted)", s, res.UploadsAttempted)
			}
			if res.Checkpoints == 0 {
				t.Fatalf("seed %d: no checkpoint ran", s)
			}
			if !res.Metrics.WAL.Enabled {
				t.Fatalf("seed %d: crash-restart run was not durable", s)
			}
		})
	}
}

// TestSimCheckCrashRestartDeterministic demands that a durable run —
// including its recovery traces — replays bit-identically, so the
// crash-restart repro line is honest.
func TestSimCheckCrashRestartDeterministic(t *testing.T) {
	cfg := DefaultCrashConfig(5)
	cfg.Ops = 240
	a := runSeed(t, cfg)
	b := runSeed(t, cfg)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hashes differ across identical crash-restart runs: %s vs %s", a.TraceHash, b.TraceHash)
	}
	if a != b {
		t.Fatalf("results differ across identical crash-restart runs:\n  %+v\n  %+v", a, b)
	}
	if a.Restarts == 0 {
		t.Fatal("no restart ran; determinism check is vacuous")
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

// TestSimCheckDeterministic runs the same config twice and demands an
// identical op/fault trace: the repro line is only honest if a seed
// replays the run exactly.
func TestSimCheckDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 4} { // one cache-on seed, one cache-off
		cfg := DefaultConfig(seed)
		cfg.Ops = 240
		a := runSeed(t, cfg)
		b := runSeed(t, cfg)
		if a.TraceHash != b.TraceHash {
			t.Fatalf("seed %d: trace hashes differ across identical runs: %s vs %s", seed, a.TraceHash, b.TraceHash)
		}
		if a != b {
			t.Fatalf("seed %d: results differ across identical runs:\n  %+v\n  %+v", seed, a, b)
		}
	}
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
