package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
)

// cacheTestDistributor builds a distributor over 8 hooked providers that
// count every Get round-trip, so tests can assert cache hits cost zero
// provider I/O.
func cacheTestDistributor(t *testing.T, cacheBytes int64) (*Distributor, *atomic.Int64) {
	t.Helper()
	var gets atomic.Int64
	f, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("C%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mem.SetBeforeGet(func(string) error {
			gets.Add(1)
			return nil
		})
		if err := f.Add(mem); err != nil {
			t.Fatal(err)
		}
	}
	d, err := New(Config{Fleet: f, Parallelism: 4, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	return d, &gets
}

func TestConfigRejectsNegativeCacheBytes(t *testing.T) {
	f, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := provider.New(provider.Info{Name: "X", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(mem); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Fleet: f, CacheBytes: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("New with CacheBytes=-1: err=%v, want ErrConfig", err)
	}
}

// TestGetChunkCacheHitZeroProviderRoundTrips is the acceptance test for
// the read cache: once a chunk is resident, serving it again performs no
// provider round-trips at all.
func TestGetChunkCacheHitZeroProviderRoundTrips(t *testing.T) {
	d, gets := cacheTestDistributor(t, 32<<20)
	data := payload(64<<10, 3)
	if _, err := d.Upload("alice", "root", "f.bin", data, privacy.Moderate, UploadOptions{MisleadFraction: 0.1}); err != nil {
		t.Fatal(err)
	}

	first, err := d.GetChunk("alice", "root", "f.bin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if gets.Load() == 0 {
		t.Fatal("cold read performed no provider gets")
	}
	before := gets.Load()

	second, err := d.GetChunk("alice", "root", "f.bin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := gets.Load() - before; got != 0 {
		t.Fatalf("cache-hit read performed %d provider round-trips, want 0", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached bytes differ from cold-read bytes")
	}
	m := d.Metrics()
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Cache.Entries == 0 || m.Cache.Bytes == 0 {
		t.Fatalf("cache residency entries=%d bytes=%d, want nonzero", m.Cache.Entries, m.Cache.Bytes)
	}
}

// TestGetFileServedFromCache checks the whole-file path both populates
// the cache and is served from it without provider I/O on a warm read.
func TestGetFileServedFromCache(t *testing.T) {
	d, gets := cacheTestDistributor(t, 32<<20)
	data := payload(96<<10, 5)
	if _, err := d.Upload("alice", "root", "f.bin", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	first, err := d.GetFile("alice", "root", "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	before := gets.Load()
	second, err := d.GetFile("alice", "root", "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got := gets.Load() - before; got != 0 {
		t.Fatalf("warm GetFile performed %d provider round-trips, want 0", got)
	}
	if !bytes.Equal(first, data) || !bytes.Equal(second, data) {
		t.Fatal("file bytes corrupted through the cache")
	}
}

// TestCacheInvalidationOnUpdate checks a committed UpdateChunk makes the
// cached pre-update bytes unservable.
func TestCacheInvalidationOnUpdate(t *testing.T) {
	d, _ := cacheTestDistributor(t, 32<<20)
	oldData := payload(8<<10, 1)
	if _, err := d.Upload("alice", "root", "f.bin", oldData, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetChunk("alice", "root", "f.bin", 0); err != nil {
		t.Fatal(err)
	}
	newData := payload(8<<10, 2)
	if err := d.UpdateChunk("alice", "root", "f.bin", 0, newData, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetChunk("alice", "root", "f.bin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("post-update read served pre-update bytes")
	}
}

// TestCacheNoAliasAcrossReupload checks that removing a file and
// re-uploading the same filename can never serve the dead file's cached
// chunks: the new file has a fresh FID, so old keys cannot collide.
func TestCacheNoAliasAcrossReupload(t *testing.T) {
	d, _ := cacheTestDistributor(t, 32<<20)
	oldData := payload(8<<10, 11)
	if _, err := d.Upload("alice", "root", "f.bin", oldData, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetChunk("alice", "root", "f.bin", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveFile("alice", "root", "f.bin"); err != nil {
		t.Fatal(err)
	}
	newData := payload(8<<10, 22)
	if _, err := d.Upload("alice", "root", "f.bin", newData, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetChunk("alice", "root", "f.bin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("re-uploaded filename served the removed file's cached bytes")
	}
}

// TestCacheEviction checks the byte bound holds: reading more distinct
// chunks than fit evicts least-recently-used entries instead of growing.
func TestCacheEviction(t *testing.T) {
	// Moderate privacy → 16 KiB chunks; bound the cache to ~2 of them.
	d, _ := cacheTestDistributor(t, 40<<10)
	data := payload(128<<10, 9) // 8 chunks
	if _, err := d.Upload("alice", "root", "f.bin", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	n, err := d.ChunkCount("alice", "root", "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	for serial := 0; serial < n; serial++ {
		if _, err := d.GetChunk("alice", "root", "f.bin", serial); err != nil {
			t.Fatal(err)
		}
	}
	m := d.Metrics()
	if m.Cache.Evictions == 0 {
		t.Fatalf("read %d chunks through a %d-byte cache with no evictions", n, 40<<10)
	}
	if m.Cache.Bytes > 40<<10 {
		t.Fatalf("cache holds %d bytes, bound is %d", m.Cache.Bytes, 40<<10)
	}
}

// TestReadersRaceUpdateCommit is the stress test for generation-aware
// invalidation: readers hammer GetChunk (warming and re-warming the
// cache) while a writer commits a sequence of UpdateChunks. A reader that
// starts after generation g committed must never observe bytes older than
// g — neither from providers nor from a stale cache entry.
func TestReadersRaceUpdateCommit(t *testing.T) {
	d, _ := cacheTestDistributor(t, 32<<20)
	const chunkBytes = 8 << 10
	mkData := func(gen byte) []byte { return bytes.Repeat([]byte{gen}, chunkBytes) }
	if _, err := d.Upload("alice", "root", "f.bin", mkData(0), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}

	const updates = 20
	var committed atomic.Int64 // latest generation whose commit returned
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := committed.Load()
				got, err := d.GetChunk("alice", "root", "f.bin", 0)
				if err != nil {
					// A read that planned against a generation whose blobs a
					// racing commit already retired fails unavailable; that
					// is a transient, not a stale observation.
					if errors.Is(err, ErrUnavailable) {
						continue
					}
					t.Errorf("reader: %v", err)
					return
				}
				if len(got) != chunkBytes {
					t.Errorf("reader: got %d bytes, want %d", len(got), chunkBytes)
					return
				}
				seen := int64(got[0])
				for _, b := range got {
					if int64(b) != seen {
						t.Errorf("reader: torn chunk: mixed generations %d and %d", seen, b)
						return
					}
				}
				if seen < floor {
					t.Errorf("reader observed generation %d after generation %d committed", seen, floor)
					return
				}
			}
		}()
	}
	for gen := byte(1); gen <= updates; gen++ {
		if err := d.UpdateChunk("alice", "root", "f.bin", 0, mkData(gen), UploadOptions{}); err != nil {
			t.Fatalf("update %d: %v", gen, err)
		}
		committed.Store(int64(gen))
	}
	close(stop)
	wg.Wait()

	got, err := d.GetChunk("alice", "root", "f.bin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != updates {
		t.Fatalf("final read generation %d, want %d", got[0], updates)
	}
}
