package transport

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

const (
	singleDeletes = "DELETE /v1/chunks/"
	multiDeletes  = "POST " + multiDeletePath
)

// deleteCalls is how many delete requests, single and multi, each
// provider server saw since the last reset.
func (f *loopbackFleet) deleteCalls() []int {
	calls := make([]int, len(f.gates))
	for i, g := range f.gates {
		g.mu.Lock()
		calls[i] = g.seen[singleDeletes] + g.seen[multiDeletes]
		g.mu.Unlock()
	}
	return calls
}

// TestRemoveRequestArithmetic pins the delete step's provider traffic on
// the real hop: a remove sends each provider its blobs in calls of up to
// 32 keys, a call of one key is the plain DELETE, and an update retires
// its superseded generation in at most one call per provider.
func TestRemoveRequestArithmetic(t *testing.T) {
	f := newLoopbackFleet(t, 6, 10*time.Second, core.Config{})
	upload := func(name string, size int, pl privacy.Level, opts core.UploadOptions) {
		t.Helper()
		if _, err := f.dist.Upload("a", "pw", name, patterned(size), pl, opts); err != nil {
			t.Fatalf("upload %s: %v", name, err)
		}
	}
	step := func(name string, wantSingle, wantMulti, wantBlobs int, op func() error) {
		t.Helper()
		f.resetRequests()
		before := f.dist.Metrics()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := f.dist.Metrics()
		single, multi := f.requests(singleDeletes), f.requests(multiDeletes)
		if wantSingle >= 0 && (single != wantSingle || multi != wantMulti) {
			t.Errorf("%s: %d DELETEs and %d multi-deletes, want %d and %d", name, single, multi, wantSingle, wantMulti)
		}
		if calls, blobs := m.BulkDeletes-before.BulkDeletes, m.BulkDeleteBlobs-before.BulkDeleteBlobs; calls != int64(single+multi) || blobs != int64(wantBlobs) {
			t.Errorf("%s: BulkDeletes/BulkDeleteBlobs = %d/%d, want %d/%d", name, calls, blobs, single+multi, wantBlobs)
		}
	}

	// 512 chunks in 128 stripes of 4+2 over six providers: 128 blobs on
	// each, four calls of 32.
	upload("defended", 4<<20, privacy.High, core.UploadOptions{Assurance: raid.RAID6, MisleadFraction: 0.25})
	step("4 MiB PL3 RAID-6 defended remove", 0, 24, 768, func() error {
		return f.dist.RemoveFile("a", "pw", "defended")
	})
	for i, mem := range f.mems {
		if mem.Len() != 0 {
			t.Fatalf("provider %d holds %d blobs after the remove", i, mem.Len())
		}
	}

	// One chunk and its parity, on two providers.
	upload("small", 4<<10, privacy.Moderate, core.UploadOptions{})
	step("4 KiB PL2 remove", 2, 0, 2, func() error {
		return f.dist.RemoveFile("a", "pw", "small")
	})

	// The second update retires a primary, its mirror, the first update's
	// snapshot and two parity shards.
	upload("mirrored", 4<<10, privacy.Moderate, core.UploadOptions{Assurance: raid.RAID6, Replicas: 1})
	if err := f.dist.UpdateChunk("a", "pw", "mirrored", 0, patterned(4<<10), core.UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	step("update chunk", -1, -1, 5, func() error {
		return f.dist.UpdateChunk("a", "pw", "mirrored", 0, patterned(2<<10), core.UploadOptions{})
	})
	for i, n := range f.deleteCalls() {
		if n > 1 {
			t.Errorf("the update's retire sent provider %d %d delete requests, want at most 1", i, n)
		}
	}
}

// TestAbortedUploadDeletesEachBlobOnce aborts a many-stripe upload on a
// fleet exactly as wide as its stripes, so the failed put has nowhere to
// go: every blob that reached a provider is deleted exactly once, in
// batched calls, nothing else is deleted, and RollbackDeletes counts the
// blobs, not the calls.
func TestAbortedUploadDeletesEachBlobOnce(t *testing.T) {
	f := newLoopbackFleet(t, 5, 10*time.Second, core.Config{})
	const failAt = 40 // of 80 puts: 64 chunks in 16 stripes of 4+1
	var mu sync.Mutex
	puts, stored, deleted := 0, map[string]bool{}, map[string]int{}
	for _, h := range f.mems {
		h.SetBeforePut(func(_ int, key string) error {
			mu.Lock()
			defer mu.Unlock()
			if puts++; puts == failAt {
				return errors.New("disk full")
			}
			stored[key] = true
			return nil
		})
		h.SetBeforeDelete(func(key string) error {
			mu.Lock()
			deleted[key]++
			mu.Unlock()
			return nil
		})
	}
	if _, err := f.dist.Upload("a", "pw", "doomed", patterned(1<<20), privacy.Moderate, core.UploadOptions{}); err == nil {
		t.Fatal("upload should fail when failover is impossible")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, mem := range f.mems {
		if mem.Len() != 0 {
			t.Fatalf("provider %d holds %d orphaned blobs after the rollback", i, mem.Len())
		}
	}
	for key := range stored {
		if deleted[key] != 1 {
			t.Fatalf("stored blob %s was deleted %d times", key, deleted[key])
		}
	}
	if got := f.dist.Metrics().RollbackDeletes; got != int64(len(stored)) || len(deleted) != len(stored) {
		t.Fatalf("RollbackDeletes = %d and %d keys deleted, want %d each", got, len(deleted), len(stored))
	}
	if calls := f.requests(singleDeletes) + f.requests(multiDeletes); calls > len(f.mems) || f.requests(multiDeletes) == 0 {
		t.Fatalf("the rollback of %d blobs made %d delete requests (%d multi): want at most one per provider",
			len(stored), calls, f.requests(multiDeletes))
	}
}

// TestRemoveWithDarkProviderIsIncomplete: a provider that fails every
// request while a file is removed leaves the remove incomplete with the
// tables untouched, costs its health record one failure per call, not
// per blob, and a retry once it is back finishes the job.
func TestRemoveWithDarkProviderIsIncomplete(t *testing.T) {
	f := newLoopbackFleet(t, 6, 10*time.Second, core.Config{})
	// 128 chunks in 32 stripes of 4+2: 32 blobs, one call, per provider.
	data := patterned(1 << 20)
	if _, err := f.dist.Upload("a", "pw", "f", data, privacy.High, core.UploadOptions{Assurance: raid.RAID6}); err != nil {
		t.Fatal(err)
	}
	before := f.dist.Stats()
	const dark = 3
	failures := f.dist.Health().Providers[dark].Failures
	f.mems[dark].SetPartitioned(true)
	err := f.dist.RemoveFile("a", "pw", "f")
	if err == nil || !strings.Contains(err.Error(), "remove incomplete") || !errors.Is(err, provider.ErrOutage) {
		t.Fatalf("RemoveFile with provider %d dark = %v, want remove incomplete: outage", dark, err)
	}
	if after := f.dist.Stats(); after.Files != before.Files || after.Chunks != before.Chunks || after.ParityShards != before.ParityShards {
		t.Fatalf("tables changed by an incomplete remove: before %+v, after %+v", before, after)
	}
	if n := f.dist.Health().Providers[dark].Failures - failures; n != 1 {
		t.Errorf("the dark provider's one call cost it %d health failures, want 1", n)
	}
	if n := f.mems[dark].Len(); n != 32 {
		t.Errorf("the dark provider holds %d blobs, want its 32 untouched", n)
	}

	f.mems[dark].SetPartitioned(false)
	if err := f.dist.RemoveFile("a", "pw", "f"); err != nil {
		t.Fatalf("retrying the remove: %v", err)
	}
	for i, mem := range f.mems {
		if mem.Len() != 0 {
			t.Errorf("provider %d holds %d blobs after the retried remove", i, mem.Len())
		}
	}
	if _, err := f.dist.ChunkCount("a", "pw", "f"); !errors.Is(err, core.ErrNoSuchFile) {
		t.Errorf("the file survived its remove: %v", err)
	}
}
