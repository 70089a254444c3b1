// Package simcheck is a deterministic simulation harness for the
// distributor: a seeded fault schedule (per-op failures, delays,
// corrupted bytes, partitions, crash-mid-write, full-fleet blackouts)
// interleaved with a randomized workload over real core.Distributors
// and an in-memory reference model. A run is one or more namespace
// shards behind the production ring, each a primary and its WAL
// followers; the single-distributor run is one shard with no followers.
// At every quiescent checkpoint a model-based oracle checks each shard's
// durability invariants; any violation carries a one-line `go test`
// repro with the seed.
//
// The whole run is a pure function of Config: providers are in-memory,
// parallelism is 1, hedging is off, and the circuit-breaker clock is
// virtual (advanced per op, never read from wall time), so the same
// seed always produces the same op sequence, the same fault schedule,
// the same breaker states and the same trace hash.
package simcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
)

// trace is the run's op/fault log: every line feeds an incremental
// sha256 so two runs can be compared by hash, and the tail is kept for
// violation reports.
type trace struct {
	mu    sync.Mutex
	h     hash.Hash
	lines []string
}

func newTrace() *trace { return &trace{h: sha256.New()} }

func (t *trace) addf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.h.Write([]byte(line))
	t.h.Write([]byte{'\n'})
	t.lines = append(t.lines, line)
}

// hashHex returns the hex digest of everything traced so far.
func (t *trace) hashHex() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return hex.EncodeToString(t.h.Sum(nil))
}

// tail returns the last n trace lines.
func (t *trace) tail(n int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > len(t.lines) {
		n = len(t.lines)
	}
	out := make([]string, n)
	copy(out, t.lines[len(t.lines)-n:])
	return out
}

// all returns a copy of every trace line, for artifact dumps.
func (t *trace) all() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.lines...)
}
