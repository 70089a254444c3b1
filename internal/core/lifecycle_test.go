package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/privacy"
	"repro/internal/raid"
)

func TestRemoveFile(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(90_000, 30)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if before.Chunks == 0 {
		t.Fatal("no chunks after upload")
	}
	if err := d.RemoveFile("alice", "root", "f"); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	if after.Chunks != 0 || after.Files != 0 || after.ParityShards != 0 {
		t.Fatalf("stats after remove = %+v", after)
	}
	// No shards remain anywhere in the fleet.
	for _, p := range d.fleet.All() {
		if p.Len() != 0 {
			t.Fatalf("provider %s still holds %d keys", p.Info().Name, p.Len())
		}
	}
	if _, err := d.GetFile("alice", "root", "f"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("get after remove: %v", err)
	}
	if err := d.RemoveFile("alice", "root", "f"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestRemoveFileAuth(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "f", payload(10_000, 31), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveFile("alice", "guest", "f"); !errors.Is(err, ErrAuth) {
		t.Fatalf("low-privilege remove: %v", err)
	}
	if err := d.RemoveFile("alice", "nope", "f"); !errors.Is(err, ErrAuth) {
		t.Fatalf("bad password: %v", err)
	}
}

func TestRemoveChunk(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(100_000, 32)
	info, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks < 3 {
		t.Fatalf("need >=3 chunks, got %d", info.Chunks)
	}
	if err := d.RemoveChunk("alice", "root", "f", 1); err != nil {
		t.Fatal(err)
	}
	// Removed serial is gone.
	if _, err := d.GetChunk("alice", "root", "f", 1); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("get removed chunk: %v", err)
	}
	if err := d.RemoveChunk("alice", "root", "f", 1); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("double chunk remove: %v", err)
	}
	// Other serials still readable.
	got, err := d.GetChunk("alice", "root", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := privacy.DefaultChunkSizes().Size(privacy.Moderate)
	if !bytes.Equal(got, data[:size]) {
		t.Fatal("surviving chunk mismatch")
	}
	// Whole-file read reports the hole.
	if _, err := d.GetFile("alice", "root", "f"); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("file read with hole: %v", err)
	}
	if d.Stats().Chunks != info.Chunks-1 {
		t.Fatalf("chunk count = %d, want %d", d.Stats().Chunks, info.Chunks-1)
	}
}

func TestRemoveChunkKeepsRAIDWorking(t *testing.T) {
	// After a chunk is removed, its stripe's parity is re-encoded, so the
	// remaining chunks must still survive a provider outage.
	d := testDistributor(t, 6)
	data := payload(100_000, 33)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveChunk("alice", "root", "f", 0); err != nil {
		t.Fatal(err)
	}
	size, _ := privacy.DefaultChunkSizes().Size(privacy.Moderate)
	for i := 0; i < 6; i++ {
		p, _ := d.fleet.At(i)
		p.SetOutage(true)
		got, err := d.GetChunk("alice", "root", "f", 1)
		if err != nil {
			t.Fatalf("provider %d down after chunk removal: %v", i, err)
		}
		if !bytes.Equal(got, data[size:2*size]) {
			t.Fatalf("provider %d down: chunk 1 mismatch", i)
		}
		p.SetOutage(false)
	}
}

func TestRemoveAllChunksOneByOne(t *testing.T) {
	d := testDistributor(t, 6)
	info, err := d.Upload("alice", "root", "f", payload(70_000, 34), privacy.Moderate, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < info.Chunks; s++ {
		if err := d.RemoveChunk("alice", "root", "f", s); err != nil {
			t.Fatalf("remove serial %d: %v", s, err)
		}
	}
	for _, p := range d.fleet.All() {
		if p.Len() != 0 {
			t.Fatalf("provider %s still holds %d keys after removing every chunk", p.Info().Name, p.Len())
		}
	}
	if d.Stats().Chunks != 0 {
		t.Fatalf("chunks = %d", d.Stats().Chunks)
	}
}

// TestUpdateChunkWithSnapshot: an update keeps the pre-state on a
// snapshot provider and GetSnapshot returns it as the client wrote it —
// opened with the file's key when the file is encrypted. A pre-state that
// carries decoys cannot be stripped once its positions are gone from the
// row, so none is kept and the read says so rather than return laced bytes.
func TestUpdateChunkWithSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     UploadOptions
		snapshot bool
	}{
		{"plain", UploadOptions{}, true},
		{"encrypted", UploadOptions{EncryptKey: encKey}, true},
		{"decoys", UploadOptions{MisleadFraction: 0.25}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := testDistributor(t, 6)
			data := payload(50_000, 35)
			if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, tc.opts); err != nil {
				t.Fatal(err)
			}
			// No snapshot before any modification.
			if _, err := d.GetSnapshot("alice", "root", "f", 0); !errors.Is(err, ErrNoSnapshot) {
				t.Fatalf("premature snapshot: %v", err)
			}
			size, _ := privacy.DefaultChunkSizes().Size(privacy.Moderate)
			oldChunk := data[:size]
			newChunk := payload(size, 36)
			if err := d.UpdateChunk("alice", "root", "f", 0, newChunk, UploadOptions{}); err != nil {
				t.Fatal(err)
			}
			// Post-state served normally.
			got, err := d.GetChunk("alice", "root", "f", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, newChunk) {
				t.Fatal("post-state mismatch")
			}
			d.mu.Lock()
			entry := d.chunks[0]
			d.mu.Unlock()
			snap, err := d.GetSnapshot("alice", "root", "f", 0)
			if !tc.snapshot {
				if !errors.Is(err, ErrNoSnapshot) {
					t.Fatalf("snapshot of a pre-state with decoys: %d bytes, %v; want ErrNoSnapshot", len(snap), err)
				}
				if entry.SPIndex != -1 || entry.SnapVID != "" || d.Stats().Snapshots != 0 {
					t.Fatalf("a snapshot blob nobody can read was kept: %+v", entry)
				}
				return
			}
			// Pre-state preserved on the snapshot provider.
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, oldChunk) {
				t.Fatalf("snapshot is not the pre-state (%d bytes back for a %d-byte chunk)", len(snap), len(oldChunk))
			}
			// Snapshot lives on a different provider than the chunk.
			if entry.SPIndex == entry.CPIndex {
				t.Fatal("snapshot on the same provider as the chunk")
			}
			if entry.SPIndex < 0 || entry.SnapVID == "" {
				t.Fatalf("snapshot bookkeeping missing: %+v", entry)
			}
		})
	}
}

func TestUpdateChunkKeepsRAIDConsistent(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(60_000, 37)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	newChunk := payload(500, 38) // different length than the original chunk
	if err := d.UpdateChunk("alice", "root", "f", 1, newChunk, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// After parity re-encode, the updated chunk must survive outages.
	for i := 0; i < 6; i++ {
		p, _ := d.fleet.At(i)
		p.SetOutage(true)
		got, err := d.GetChunk("alice", "root", "f", 1)
		if err != nil {
			t.Fatalf("provider %d down after update: %v", i, err)
		}
		if !bytes.Equal(got, newChunk) {
			t.Fatalf("provider %d down: updated chunk mismatch", i)
		}
		// And its stripe siblings too.
		if _, err := d.GetChunk("alice", "root", "f", 0); err != nil {
			t.Fatalf("provider %d down: sibling chunk: %v", i, err)
		}
		p.SetOutage(false)
	}
}

func TestUpdateChunkSecondUpdateRetiresOldSnapshot(t *testing.T) {
	d := testDistributor(t, 6)
	if _, err := d.Upload("alice", "root", "f", payload(20_000, 39), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	v1 := payload(300, 40)
	v2 := payload(280, 41)
	if err := d.UpdateChunk("alice", "root", "f", 0, v1, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateChunk("alice", "root", "f", 0, v2, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := d.GetSnapshot("alice", "root", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, v1) {
		t.Fatal("snapshot should hold the immediately-previous state")
	}
	got, _ := d.GetChunk("alice", "root", "f", 0)
	if !bytes.Equal(got, v2) {
		t.Fatal("current state wrong after two updates")
	}
}

func TestUpdateChunkValidation(t *testing.T) {
	d := testDistributor(t, 5)
	if _, err := d.Upload("alice", "root", "f", payload(10_000, 42), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateChunk("alice", "guest", "f", 0, []byte("x"), UploadOptions{}); !errors.Is(err, ErrAuth) {
		t.Fatalf("low-privilege update: %v", err)
	}
	if err := d.UpdateChunk("alice", "root", "f", 99, []byte("x"), UploadOptions{}); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("bad serial: %v", err)
	}
	if err := d.UpdateChunk("alice", "root", "f", 0, []byte("x"), UploadOptions{MisleadFraction: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad fraction: %v", err)
	}
}

func TestUpdateWithMisleadThenRead(t *testing.T) {
	d := testDistributor(t, 6)
	if _, err := d.Upload("alice", "root", "f", payload(20_000, 43), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	newChunk := payload(800, 44)
	if err := d.UpdateChunk("alice", "root", "f", 0, newChunk, UploadOptions{MisleadFraction: 0.4}); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetChunk("alice", "root", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newChunk) {
		t.Fatal("mislead strip after update failed")
	}
}

// TestUpdateChunkWithSiblingProviderDown is the regression test for a
// subtle corruption bug: updating chunk A while the provider of sibling
// chunk B is down used to re-encode parity by "reconstructing" B through
// parity that was already stale (A's new payload was written first),
// silently corrupting B. The fix prefetches siblings while the stripe is
// still consistent.
func TestUpdateChunkWithSiblingProviderDown(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(60_000, 120) // 4 chunks at PL2 → one stripe of width 4
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	size, _ := privacy.DefaultChunkSizes().Size(privacy.Moderate)

	// Take down the provider hosting sibling chunk 1.
	d.mu.Lock()
	sibling := d.chunks[1]
	d.mu.Unlock()
	sp, _ := d.fleet.At(sibling.CPIndex)
	sp.SetOutage(true)

	// Update chunk 0 while the sibling is unreachable (it is still
	// readable through RAID at prefetch time, so the update succeeds).
	newChunk := payload(size, 121)
	if err := d.UpdateChunk("alice", "root", "f", 0, newChunk, UploadOptions{}); err != nil {
		t.Fatalf("update with sibling down: %v", err)
	}

	// Chunk 1 must still read back EXACTLY, both via reconstruction while
	// its provider is down...
	got, err := d.GetChunk("alice", "root", "f", 1)
	if err != nil {
		t.Fatalf("sibling read during outage: %v", err)
	}
	if !bytes.Equal(got, data[size:2*size]) {
		t.Fatal("sibling corrupted by update (reconstruction path)")
	}
	// ...and directly after it recovers.
	sp.SetOutage(false)
	got, err = d.GetChunk("alice", "root", "f", 1)
	if err != nil || !bytes.Equal(got, data[size:2*size]) {
		t.Fatalf("sibling corrupted by update (direct path): %v", err)
	}
	// The updated chunk itself reads the new contents.
	got, err = d.GetChunk("alice", "root", "f", 0)
	if err != nil || !bytes.Equal(got, newChunk) {
		t.Fatalf("updated chunk wrong: %v", err)
	}
	// And the whole stripe still survives any single outage.
	for i := 0; i < 6; i++ {
		p, _ := d.fleet.At(i)
		p.SetOutage(true)
		if _, err := d.GetFile("alice", "root", "f"); err != nil {
			t.Fatalf("provider %d down after update: %v", i, err)
		}
		p.SetOutage(false)
	}
}

// TestRemoveReleasesMemory is the regression test for the leak the
// end-to-end benchmark found: every removed chunk kept its full row —
// for a defended file that was the whole sampling permutation, ~10 MB
// per MiB uploaded — so a put/remove loop grew without bound. After 50
// cycles of a 1 MiB PL3 object with 25 % decoys the heap must be back
// within a small constant of where it started; what legitimately stays
// is 50 × 128 bare tombstones and their emptied stripe rows, just under
// 2 MiB. (Tombstones that keep even the compact position list hold
// 19 MiB here.)
func TestRemoveReleasesMemory(t *testing.T) {
	d := testDistributor(t, 8)
	data := payload(1<<20, 9)
	opts := UploadOptions{MisleadFraction: 0.25, Assurance: raid.RAID6}
	cycle := func() {
		if _, err := d.Upload("alice", "root", "f", data, privacy.High, opts); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveFile("alice", "root", "f"); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle returns what sync.Pool held through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cycle() // pools, provider maps and table backing arrays reach their working size
	before := heap()
	for i := 0; i < 50; i++ {
		cycle()
	}
	after := heap()
	runtime.KeepAlive(d) // or the collector frees the tables under test
	runtime.KeepAlive(data)
	const slack = 4 << 20
	t.Logf("heap %d KiB before, %d KiB after 50 cycles", before>>10, after>>10)
	if after > before+slack {
		t.Fatalf("heap grew %d KiB over 50 upload/remove cycles (limit %d KiB): removed files are being retained",
			(after-before)>>10, slack>>10)
	}
}
