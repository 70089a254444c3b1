package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// hookedFleet builds n Hooked in-memory providers with identical cost
// levels, so placement is purely load-balancing and every provider gets
// selected deterministically.
func hookedFleet(t *testing.T, n int) (*provider.Fleet, []*provider.Hooked) {
	t.Helper()
	f, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	hooked := make([]*provider.Hooked, n)
	for i := 0; i < n; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("H%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hooked[i] = provider.NewHooked(mem)
		if err := f.Add(hooked[i]); err != nil {
			t.Fatal(err)
		}
	}
	return f, hooked
}

// hookedDistributor builds a distributor over a hookedFleet with
// serialized provider I/O (so put ordinals are the staged shard order).
func hookedDistributor(t *testing.T, n int) (*Distributor, []*provider.Hooked) {
	t.Helper()
	f, hooked := hookedFleet(t, n)
	d, err := New(Config{Fleet: f, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	return d, hooked
}

// failNthFleetPut makes the k-th Put across the whole fleet fail with
// ErrOutage (not retried as transient), everything else pass.
func failNthFleetPut(hooked []*provider.Hooked, k int) {
	var mu sync.Mutex
	n := 0
	for _, h := range hooked {
		h.SetBeforePut(func(_ int, _ string) error {
			mu.Lock()
			defer mu.Unlock()
			n++
			if n == k {
				return provider.ErrOutage
			}
			return nil
		})
	}
}

func clearPutHooks(hooked []*provider.Hooked) {
	for _, h := range hooked {
		h.SetBeforePut(nil)
	}
}

// TestUploadRollbackAtEveryShardPosition fails the upload's k-th provider
// put for every shard position of a one-stripe file, on a fleet exactly
// as wide as the stripe so failover has nowhere to go. The upload must
// fail cleanly: no blobs left on any provider, no table rows, and the
// same file uploadable once the fault clears.
func TestUploadRollbackAtEveryShardPosition(t *testing.T) {
	cases := []struct {
		name      string
		providers int
		puts      int // data shards + parity shards in one stripe
		opts      UploadOptions
	}{
		{"raid5", 5, 5, UploadOptions{}},
		{"raid6", 6, 6, UploadOptions{Assurance: raid.RAID6}},
	}
	for _, tc := range cases {
		for k := 1; k <= tc.puts; k++ {
			t.Run(fmt.Sprintf("%s_put%d", tc.name, k), func(t *testing.T) {
				d, hooked := hookedDistributor(t, tc.providers)
				// Exactly one full stripe: width (4) data chunks.
				data := payload(4*chunkSizeFor(t, privacy.Moderate), int64(100+k))
				failNthFleetPut(hooked, k)
				if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, tc.opts); err == nil {
					t.Fatal("upload should fail when failover is impossible")
				}
				for i, h := range hooked {
					if h.Len() != 0 {
						t.Fatalf("provider %d holds %d orphaned blobs after rollback", i, h.Len())
					}
				}
				st := d.Stats()
				if st.Chunks != 0 || st.ParityShards != 0 || st.Stripes != 0 || st.Files != 0 {
					t.Fatalf("tables not rolled back: %+v", st)
				}
				if _, err := d.ChunkCount("alice", "root", "f"); !errors.Is(err, ErrNoSuchFile) {
					t.Fatalf("file exists after failed upload: %v", err)
				}
				// A ship round runs every put to its end, so all but the failed
				// one were stored, and each is deleted exactly once.
				if n := d.Metrics().RollbackDeletes; n != int64(tc.puts-1) {
					t.Fatalf("rollback recorded %d deletes, want %d", n, tc.puts-1)
				}
				// The fault was transient operator error, not state damage:
				// the same upload must work once the hook clears.
				clearPutHooks(hooked)
				if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, tc.opts); err != nil {
					t.Fatalf("upload after fault cleared: %v", err)
				}
				got, err := d.GetFile("alice", "root", "f")
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("round trip after recovery: %v", err)
				}
			})
		}
	}
}

// TestRollbackFansOut aborts a many-stripe defended upload late, at the
// default parallelism: the hundreds of blobs already stored are deleted
// through the same bounded fan-out as every other bulk provider loop
// (serially this was one round trip after another), every one of them
// exactly once, and the counter says so.
func TestRollbackFansOut(t *testing.T) {
	f, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	hooked := make([]*provider.Hooked, 6)
	var mu sync.Mutex
	stored, deleted := map[string]bool{}, map[string]int{}
	inFlight, peak := 0, 0
	for i := range hooked {
		mem, err := provider.New(provider.Info{Name: fmt.Sprintf("H%d", i), PL: privacy.High, CL: 1}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hooked[i] = provider.NewHooked(mem)
		hooked[i].SetBeforeDelete(func(key string) error {
			mu.Lock()
			deleted[key]++
			inFlight++
			peak = max(peak, inFlight)
			mu.Unlock()
			time.Sleep(100 * time.Microsecond) // long enough for deletes to overlap
			mu.Lock()
			inFlight--
			mu.Unlock()
			return nil
		})
		if err := f.Add(hooked[i]); err != nil {
			t.Fatal(err)
		}
	}
	d, err := New(Config{Fleet: f}) // Parallelism 4, the default
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	// 64 chunks at PL3 over RAID-6 on six providers: 16 stripes, 96 puts,
	// nowhere to fail over to. The 90th put fails for good.
	n := 0
	for _, h := range hooked {
		h.SetBeforePut(func(_ int, key string) error {
			mu.Lock()
			defer mu.Unlock()
			if n++; n == 90 {
				return provider.ErrOutage
			}
			stored[key] = true
			return nil
		})
	}
	data := payload(64*chunkSizeFor(t, privacy.High), 600)
	opts := UploadOptions{MisleadFraction: 0.25, Assurance: raid.RAID6}
	if _, err := d.Upload("alice", "root", "f", data, privacy.High, opts); err == nil {
		t.Fatal("upload should fail when failover is impossible")
	}
	for i, h := range hooked {
		if h.Len() != 0 {
			t.Fatalf("provider %d holds %d orphaned blobs after rollback", i, h.Len())
		}
	}
	if len(stored) < 80 {
		t.Fatalf("only %d blobs were stored before the abort; the rollback is not a bulk one", len(stored))
	}
	for key := range stored {
		if deleted[key] != 1 {
			t.Fatalf("stored blob %s was deleted %d times", key, deleted[key])
		}
	}
	if got := d.Metrics().RollbackDeletes; got != int64(len(stored)) || len(deleted) != len(stored) {
		t.Fatalf("RollbackDeletes = %d and %d keys deleted, want %d each", got, len(deleted), len(stored))
	}
	if peak < 2 {
		t.Fatalf("at most %d delete in flight at a time: the rollback ran serially", peak)
	}
}

// darken makes one provider silently fail every data-plane operation
// while still reporting itself up — the failure mode SetOutage cannot
// model, and the one the health tracker exists to catch.
func darken(h *provider.Hooked) {
	h.SetBeforePut(func(int, string) error { return provider.ErrOutage })
	h.SetBeforeGet(func(string) error { return provider.ErrOutage })
}

// TestUploadFailsOverAroundDarkProvider gives failover one spare
// provider: uploads must succeed by re-homing the shards that land on
// the dark provider, leaving no orphans anywhere.
func TestUploadFailsOverAroundDarkProvider(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	darken(hooked[0])
	var files []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d", i)
		data := payload(4*chunkSizeFor(t, privacy.Moderate), int64(200+i))
		if _, err := d.Upload("alice", "root", name, data, privacy.Moderate, UploadOptions{}); err != nil {
			t.Fatalf("upload %s with one dark provider: %v", name, err)
		}
		got, err := d.GetFile("alice", "root", name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("readback %s: %v", name, err)
		}
		files = append(files, name)
	}
	if d.Metrics().WriteFailovers == 0 {
		t.Fatal("the dark provider was never selected; failover untested")
	}
	if hooked[0].Len() != 0 {
		t.Fatalf("dark provider holds %d blobs", hooked[0].Len())
	}
	rep, err := d.AuditOrphans(false)
	if err != nil {
		t.Fatal(err)
	}
	for prov, keys := range rep.Orphans {
		if len(keys) > 0 {
			t.Fatalf("orphans on %s after failovers: %v", prov, keys)
		}
	}
	st := d.Stats()
	for i, h := range hooked {
		if h.Len() != st.PerProvider[i] {
			t.Fatalf("provider %d holds %d keys, table says %d", i, h.Len(), st.PerProvider[i])
		}
	}
	_ = files
}

// TestCircuitBreakerAvoidsFailingProvider keeps writing against a dark
// provider until its breaker opens, then checks that placement stops
// selecting it entirely: no further put attempts reach it and uploads
// proceed with zero additional failovers.
func TestCircuitBreakerAvoidsFailingProvider(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	darken(hooked[0])
	// Enough uploads to accumulate FailureThreshold (5) consecutive put
	// failures on the dark provider, which load-balancing keeps picking
	// while its circuit is closed.
	for i := 0; i < 8; i++ {
		data := payload(4*chunkSizeFor(t, privacy.Moderate), int64(300+i))
		if _, err := d.Upload("alice", "root", fmt.Sprintf("g%d", i), data, privacy.Moderate, UploadOptions{}); err != nil {
			t.Fatalf("upload g%d: %v", i, err)
		}
	}
	health := d.Health()
	if health[0].State != "open" {
		t.Fatalf("dark provider state = %q after sustained failures, want open (health: %+v)", health[0].State, health[0])
	}
	if d.Metrics().CircuitOpens == 0 {
		t.Fatal("CircuitOpens counter never moved")
	}
	// With the circuit open the provider is invisible to placement:
	// further uploads must not attempt a single put against it.
	putsBefore := hooked[0].Puts()
	failoversBefore := d.Metrics().WriteFailovers
	for i := 0; i < 3; i++ {
		data := payload(4*chunkSizeFor(t, privacy.Moderate), int64(400+i))
		if _, err := d.Upload("alice", "root", fmt.Sprintf("h%d", i), data, privacy.Moderate, UploadOptions{}); err != nil {
			t.Fatalf("upload h%d with open circuit: %v", i, err)
		}
	}
	if n := hooked[0].Puts() - putsBefore; n != 0 {
		t.Fatalf("%d puts reached the open-circuited provider", n)
	}
	if n := d.Metrics().WriteFailovers - failoversBefore; n != 0 {
		t.Fatalf("%d failovers with the bad provider already circuit-broken", n)
	}
}

// TestRollbackPreservesExistingFiles stages a failing second upload and
// checks the rollback touches nothing belonging to the first.
func TestRollbackPreservesExistingFiles(t *testing.T) {
	d, hooked := hookedDistributor(t, 5)
	data1 := payload(4*chunkSizeFor(t, privacy.Moderate), 500)
	if _, err := d.Upload("alice", "root", "keep", data1, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	failNthFleetPut(hooked, 3)
	data2 := payload(4*chunkSizeFor(t, privacy.Moderate), 501)
	if _, err := d.Upload("alice", "root", "doomed", data2, privacy.Moderate, UploadOptions{}); err == nil {
		t.Fatal("second upload should fail")
	}
	clearPutHooks(hooked)
	after := d.Stats()
	if before.Chunks != after.Chunks || before.ParityShards != after.ParityShards {
		t.Fatalf("rollback disturbed tables: before %+v, after %+v", before, after)
	}
	for i, h := range hooked {
		if h.Len() != after.PerProvider[i] {
			t.Fatalf("provider %d holds %d keys, table says %d", i, h.Len(), after.PerProvider[i])
		}
	}
	got, err := d.GetFile("alice", "root", "keep")
	if err != nil || !bytes.Equal(got, data1) {
		t.Fatalf("first file damaged by second upload's rollback: %v", err)
	}
}
