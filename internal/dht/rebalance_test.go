// How the §IV-C Chord ring (package clientside) rebalances and routes as
// it grows.
package dht_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/clientside"
)

// ringOfSize builds a ring of n deterministically named nodes.
func ringOfSize(t *testing.T, n int) *clientside.Ring {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%03d", i)
	}
	r, err := clientside.NewRing(names...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// owners maps nKeys deterministic chunk keys to their current owner.
func owners(t *testing.T, r *clientside.Ring, nKeys int) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string, nKeys)
	for i := 0; i < nKeys; i++ {
		key := clientside.ChunkKey(fmt.Sprintf("file-%05d", i), i%7)
		o, err := r.Successor(key)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = o
	}
	return out
}

// movedFraction counts keys whose owner differs between two snapshots.
func movedFraction(before, after map[uint64]string) float64 {
	moved := 0
	for k, o := range before {
		if after[k] != o {
			moved++
		}
	}
	return float64(moved) / float64(len(before))
}

// TestRebalanceOnJoinLeave is the consistent-hashing contract the shard
// router depends on: when the ring grows from n to n+1 nodes, only
// ~1/(n+1) of the keyspace changes owner (and symmetrically on leave) —
// not the wholesale reshuffle a mod-N scheme would cause. With a single
// hash point per node the per-node arc sizes vary, so the bound is a
// generous multiple of the expectation, but far below the reshuffle
// regime; and keys that do move must move to/from exactly the node that
// joined/left.
func TestRebalanceOnJoinLeave(t *testing.T) {
	const nKeys = 4000
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := ringOfSize(t, n)
			before := owners(t, r, nKeys)

			joined := "joiner"
			if err := r.Join(joined); err != nil {
				t.Fatal(err)
			}
			after := owners(t, r, nKeys)
			frac := movedFraction(before, after)
			expect := 1.0 / float64(n+1)
			if frac > 6*expect {
				t.Fatalf("join moved %.1f%% of keys; expected ≈%.1f%% (bound %.1f%%)",
					100*frac, 100*expect, 100*6*expect)
			}
			for k, o := range before {
				if after[k] != o && after[k] != joined {
					t.Fatalf("key %d moved %s→%s, but only %q joined", k, o, after[k], joined)
				}
			}

			// Leave restores the exact prior ownership map.
			if err := r.Leave(joined); err != nil {
				t.Fatal(err)
			}
			restored := owners(t, r, nKeys)
			for k, o := range before {
				if restored[k] != o {
					t.Fatalf("leave did not restore key %d: %s vs %s", k, restored[k], o)
				}
			}

			// Leaving an original member moves only that member's keys,
			// again ≈1/n of the space.
			victim, err := r.Successor(clientside.ChunkKey("victim-pick", 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Leave(victim); err != nil {
				t.Fatal(err)
			}
			afterLeave := owners(t, r, nKeys)
			frac = movedFraction(before, afterLeave)
			if frac > 6.0/float64(n) {
				t.Fatalf("leave moved %.1f%% of keys; bound %.1f%%", 100*frac, 100*6.0/float64(n))
			}
			for k, o := range before {
				if afterLeave[k] != o && o != victim {
					t.Fatalf("key %d owned by %s moved although %s left", k, o, victim)
				}
			}
		})
	}
}

// TestLookupHopsLogN checks the routed-lookup cost stays O(log n)
// across ring sizes: the mean over many (start, key) pairs must be
// within a small constant of log2(n), and no single lookup may exceed
// the Chord worst case by more than a constant factor.
func TestLookupHopsLogN(t *testing.T) {
	const nKeys = 1500
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := ringOfSize(t, n)
			members := r.Members()
			logN := math.Log2(float64(n))
			var total, worst int
			for i := 0; i < nKeys; i++ {
				start := members[i%len(members)]
				res, err := r.Lookup(start, clientside.ChunkKey(fmt.Sprintf("hopfile-%05d", i), 0))
				if err != nil {
					t.Fatal(err)
				}
				total += res.Hops
				if res.Hops > worst {
					worst = res.Hops
				}
			}
			mean := float64(total) / float64(nKeys)
			if mean > logN+2 {
				t.Fatalf("mean hops %.2f exceeds log2(%d)+2 = %.2f", mean, n, logN+2)
			}
			if worst > int(2*logN)+3 {
				t.Fatalf("worst-case hops %d exceeds 2·log2(%d)+3 = %d", worst, n, int(2*logN)+3)
			}
		})
	}
}
