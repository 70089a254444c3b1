package core

import (
	"bytes"
	"testing"

	"repro/internal/privacy"
)

// TestCacheNotStaleAcrossDecommission is the cache-vs-migration
// lifecycle check: decommissioning a provider while its chunks are
// cache-resident must not let the old generation's cached bytes shadow
// anything that happens after the migration commits. The move bumps the
// file generation, so post-migration reads plan new cache keys — the
// warm entries become unreachable rather than stale.
func TestCacheNotStaleAcrossDecommission(t *testing.T) {
	d, gets := cacheTestDistributor(t, 32<<20)
	data := payload(48<<10, 7)
	if _, err := d.Upload("alice", "root", "f.bin", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}

	// Warm the cache with the whole file.
	if _, err := d.GetFile("alice", "root", "f.bin"); err != nil {
		t.Fatal(err)
	}
	genBefore := StateOf(d).Files[0].Gen

	// Decommission the provider holding serial 0's primary copy.
	d.mu.RLock()
	provIdx := d.chunks[d.clients["alice"].Files["f.bin"].ChunkIdx[0]].CPIndex
	d.mu.RUnlock()
	if _, err := d.Decommission(provIdx); err != nil {
		t.Fatal(err)
	}

	genAfter := StateOf(d).Files[0].Gen
	if genAfter <= genBefore {
		t.Fatalf("decommission did not bump the file generation (%d -> %d); stale cache entries would stay live", genBefore, genAfter)
	}

	// The migrated read must go back to the providers (new generation ⇒
	// new cache keys ⇒ miss), and must still serve the exact bytes.
	before := gets.Load()
	got, err := d.GetFile("alice", "root", "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-decommission read served wrong bytes")
	}
	if gets.Load() == before {
		t.Fatal("post-decommission read performed no provider I/O — it was served from the pre-migration cache")
	}

	// And a mutation after the migration must win over any warm entry:
	// the classic staleness scenario is cache(genN) surviving a move and
	// shadowing an update.
	newChunk := payload(8<<10, 8)
	if err := d.UpdateChunk("alice", "root", "f.bin", 0, newChunk, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	gotChunk, err := d.GetChunk("alice", "root", "f.bin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotChunk, newChunk) {
		t.Fatal("read after decommission+update served stale pre-update bytes")
	}
}
