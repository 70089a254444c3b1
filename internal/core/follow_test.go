package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/wal"
)

// testCluster builds the paper's Fig. 2 over one fleet of nProv
// providers: a durable primary (its WAL in a temp dir, checkpointing
// every snapshotEvery records, 0 for the default) and nFollowers
// in-memory followers. cfg rebuilds the primary from its WAL.
func testCluster(t *testing.T, nFollowers, nProv, snapshotEvery int) (cfg Config, primary *Distributor, followers []*Distributor) {
	t.Helper()
	fleet := testFleet(t, nProv)
	cfg = Config{Fleet: fleet, Secret: []byte{1}, WALDir: t.TempDir(), WALSync: wal.SyncAlways, SnapshotEvery: snapshotEvery}
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nFollowers; i++ {
		f, err := New(Config{Fleet: fleet, Secret: []byte{byte(i + 2)}})
		if err != nil {
			t.Fatal(err)
		}
		followers = append(followers, f)
	}
	return cfg, primary, followers
}

// follow runs f.Follow(primary) and fails the test on an error.
func follow(t *testing.T, f, primary *Distributor) FollowReport {
	t.Helper()
	rep, err := f.Follow(primary)
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	return rep
}

func TestClusterValidation(t *testing.T) {
	fleet := testFleet(t, 3)
	memory, _ := New(Config{Fleet: fleet})
	follower, _ := New(Config{Fleet: fleet})
	if _, err := follower.Follow(memory); !errors.Is(err, ErrConfig) {
		t.Fatalf("following a primary without a WAL: %v", err)
	}
	_, primary, _ := testCluster(t, 0, 3, 0)
	if _, err := follower.Follow(primary); !errors.Is(err, ErrConfig) {
		t.Fatalf("following a primary over another fleet: %v", err)
	}
	if _, err := primary.Follow(primary); !errors.Is(err, ErrConfig) {
		t.Fatalf("a primary following itself: %v", err)
	}
	if err := follower.RegisterClient("x"); err != nil {
		t.Fatalf("a refused Follow turned the distributor into a follower: %v", err)
	}
}

// TestClusterUploadAndRetrieveViaSecondary: the primary fails ("a single
// data distributor ... can be the single point of failure") and its
// followers keep serving retrievals; the primary recovers from its WAL
// and the followers pick up where they left off.
func TestClusterUploadAndRetrieveViaSecondary(t *testing.T) {
	cfg, primary, followers := testCluster(t, 2, 6, 0)
	if err := primary.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	data := payload(90_000, 60)
	if _, err := primary.Upload("bob", "pw", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, f := range followers {
		follow(t, f, primary)
	}
	if err := Crash(primary); err != nil {
		t.Fatal(err)
	}
	for i, f := range followers {
		got, err := f.GetFile("bob", "pw", "f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("follower %d with the primary down: %v", i, err)
		}
		if chunk, err := f.GetChunk("bob", "pw", "f", 0); err != nil || len(chunk) == 0 {
			t.Fatalf("follower %d chunk: %v", i, err)
		}
	}

	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.Upload("bob", "pw", "g", []byte("tiny"), privacy.Low, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, f := range followers {
		if rep := follow(t, f, recovered); rep.Resynced || rep.Records != 1 {
			t.Fatalf("follower %d after the primary's recovery: %+v, want one record", i, rep)
		}
		if got, err := f.GetFile("bob", "pw", "g"); err != nil || string(got) != "tiny" {
			t.Fatalf("follower %d read of the post-recovery upload: %q, %v", i, got, err)
		}
	}
}

// TestFollowerRefusesWrites: a follower's tables change only by its
// primary's records. Every write sent to it answers ErrUnavailable before
// it calls a provider: no put, not even one rolled back, and no delete.
// A scrub, whose repairs are raw puts with no record, is refused too,
// with a blob missing for it to repair.
func TestFollowerRefusesWrites(t *testing.T) {
	_, primary, followers := testCluster(t, 1, 6, 0)
	f := followers[0]
	if err := primary.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	data := payload(40_000, 8)
	if _, err := primary.Upload("bob", "pw", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	follow(t, f, primary)
	e := primary.chunks[primary.clients["bob"].Files["f"].ChunkIdx[0]]
	if p, _ := primary.fleet.At(e.CPIndex); p.Delete(e.VirtualID) != nil {
		t.Fatal("deleting a blob for the scrub to find")
	}
	blobs := func() (puts, keys int) {
		for _, p := range primary.fleet.All() {
			puts += p.(*provider.MemProvider).Puts()
			keys += p.Len()
		}
		return puts, keys
	}
	puts, keys := blobs()
	for name, write := range map[string]func() error{
		"register": func() error { return f.RegisterClient("eve") },
		"passwd":   func() error { return f.AddPassword("bob", "pw2", privacy.Low) },
		"upload": func() error {
			_, err := f.Upload("bob", "pw", "g", payload(30_000, 9), privacy.Moderate, UploadOptions{})
			return err
		},
		"update":       func() error { return f.UpdateChunk("bob", "pw", "f", 0, []byte("v2"), UploadOptions{}) },
		"remove chunk": func() error { return f.RemoveChunk("bob", "pw", "f", 1) },
		"remove file":  func() error { return f.RemoveFile("bob", "pw", "f") },
		"orphan gc": func() error {
			_, err := AuditOrphans(f, true)
			return err
		},
		"decommission": func() error {
			_, err := f.Decommission(0)
			return err
		},
		"scrub": func() error {
			_, err := f.Scrub()
			return err
		},
	} {
		if err := write(); !errors.Is(err, ErrUnavailable) {
			t.Errorf("%s on a follower: %v, want ErrUnavailable", name, err)
		}
	}
	if p, k := blobs(); p != puts || k != keys {
		t.Fatalf("refused writes reached the providers: %d puts and %d blobs, had %d and %d", p, k, puts, keys)
	}
	if rep := follow(t, f, primary); rep.Resynced || rep.Records != 0 {
		t.Fatalf("the follower diverged from its primary: %+v", rep)
	}
	for who, d := range map[string]*Distributor{"primary": primary, "follower": f} {
		if got, err := d.GetFile("bob", "pw", "f"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s read after the refused writes: %v", who, err)
		}
	}
}

func TestClusterAccessControlHoldsOnSecondaries(t *testing.T) {
	_, primary, followers := testCluster(t, 1, 5, 0)
	_ = primary.RegisterClient("bob")
	_ = primary.AddPassword("bob", "admin", privacy.High)
	_ = primary.AddPassword("bob", "weak", privacy.Public)
	if _, err := primary.Upload("bob", "admin", "s", payload(9_000, 61), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	follow(t, followers[0], primary)
	if _, err := followers[0].GetChunk("bob", "weak", "s", 0); !errors.Is(err, ErrAuth) {
		t.Fatalf("follower honored weak password: %v", err)
	}
}

func TestExportImportMetadata(t *testing.T) {
	fleet := testFleet(t, 4)
	d1, _ := New(Config{Fleet: fleet})
	_ = d1.RegisterClient("bob")
	_ = d1.AddPassword("bob", "pw", privacy.High)
	data := payload(30_000, 62)
	if _, err := d1.Upload("bob", "pw", "f", data, privacy.Moderate, UploadOptions{MisleadFraction: 0.2}); err != nil {
		t.Fatal(err)
	}
	snap := d1.exportMetadataLocked()
	d2, _ := New(Config{Fleet: fleet})
	if err := d2.importMetadata(snap); err != nil {
		t.Fatal(err)
	}
	got, err := d2.GetFile("bob", "pw", "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("imported distributor served wrong data")
	}
	if d2.Stats().Chunks != d1.Stats().Chunks {
		t.Fatal("stats diverge after import")
	}
}

func TestImportMetadataRejectsWrongFleet(t *testing.T) {
	d1, _ := New(Config{Fleet: testFleet(t, 4)})
	snap := d1.exportMetadataLocked()
	d2, _ := New(Config{Fleet: testFleet(t, 7)})
	if err := d2.importMetadata(snap); !errors.Is(err, ErrConfig) {
		t.Fatalf("fleet-size mismatch: %v", err)
	}
	if err := d2.importMetadata([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestMetadataNeverContainsPlaintextPasswords(t *testing.T) {
	fleet := testFleet(t, 4)
	d, _ := New(Config{Fleet: fleet})
	_ = d.RegisterClient("bob")
	secretPW := "hunter2-super-secret"
	if err := d.AddPassword("bob", secretPW, privacy.High); err != nil {
		t.Fatal(err)
	}
	snap := d.exportMetadataLocked()
	if bytes.Contains(snap, []byte(secretPW)) {
		t.Fatal("plaintext password present in replicated metadata")
	}
	// Authentication still works (hash comparison).
	if _, err := d.Upload("bob", secretPW, "f", []byte("x"), privacy.Low, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload("bob", "wrong", "g", []byte("x"), privacy.Low, UploadOptions{}); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong password: %v", err)
	}
	// The rendered client table shows only a hash prefix.
	rendered := FormatClientTable(d.ClientTable())
	if strings.Contains(rendered, secretPW) {
		t.Fatal("plaintext password rendered in Table II")
	}
}
