package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
)

// blockFirstPut installs a fleet-wide hook that blocks the first Put to
// reach any provider until gate is closed, signalling entered when the
// blocked Put arrives. Every other Put passes through untouched.
func blockFirstPut(hooked []*provider.MemProvider, entered chan<- struct{}, gate <-chan struct{}) {
	var mu sync.Mutex
	taken := false
	for _, h := range hooked {
		h.SetBeforePut(func(int, string) error {
			mu.Lock()
			first := !taken
			taken = true
			mu.Unlock()
			if first {
				close(entered)
				<-gate
			}
			return nil
		})
	}
}

// within fails the test if fn does not finish (successfully) inside d —
// the detector for operations stalling behind a blocked write.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s stalled behind a blocked write", what)
	}
}

// TestBlockedWriteDoesNotStallReadsOrOtherClients is the tentpole's
// acceptance test: with one upload parked inside a provider Put, reads of
// committed data and a second client's whole upload must still complete.
// Before the plan/ship/commit split, the writer held d.mu across its
// provider I/O and every one of these operations would hang.
func TestBlockedWriteDoesNotStallReadsOrOtherClients(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	if err := d.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	warm := payload(2*chunkSizeFor(t, privacy.Moderate), 11)
	if _, err := d.Upload("alice", "root", "warm", warm, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	gate := make(chan struct{})
	blockFirstPut(hooked, entered, gate)

	blockedData := payload(4*chunkSizeFor(t, privacy.Moderate), 12)
	blockedErr := make(chan error, 1)
	go func() {
		_, err := d.Upload("alice", "root", "blocked", blockedData, privacy.Moderate, UploadOptions{})
		blockedErr <- err
	}()
	<-entered

	// The write is parked inside a provider Put. Nothing below may wait
	// on it.
	within(t, 5*time.Second, "read of a committed file", func() error {
		got, err := d.GetFile("alice", "root", "warm")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, warm) {
			t.Error("warm file corrupted during concurrent write")
		}
		return nil
	})
	within(t, 5*time.Second, "range read of a committed file", func() error {
		got, err := d.GetRange("alice", "root", "warm", 100, 500)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, warm[100:600]) {
			t.Error("range read corrupted during concurrent write")
		}
		return nil
	})
	bobData := payload(2*chunkSizeFor(t, privacy.High), 13)
	within(t, 5*time.Second, "second client's upload", func() error {
		_, err := d.Upload("bob", "pw", "bobfile", bobData, privacy.High, UploadOptions{})
		return err
	})

	close(gate)
	if err := <-blockedErr; err != nil {
		t.Fatalf("blocked upload after release: %v", err)
	}
	clearPutHooks(hooked)

	for name, want := range map[string][]byte{"warm": warm, "blocked": blockedData} {
		got, err := d.GetFile("alice", "root", name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("readback %s: %v", name, err)
		}
	}
	if got, err := d.GetFile("bob", "pw", "bobfile"); err != nil || !bytes.Equal(got, bobData) {
		t.Fatalf("readback bobfile: %v", err)
	}
	st := d.Stats()
	for i, h := range hooked {
		if h.Len() != st.PerProvider[i] {
			t.Fatalf("provider %d holds %d keys, table says %d", i, h.Len(), st.PerProvider[i])
		}
	}
}

// TestConcurrentUploadSameFilenameReservation: while one upload of a
// filename is mid-ship, a second upload of the same name must fail fast
// with ErrExists (the plan phase reserves the name) — not interleave, not
// block, not double-commit.
func TestConcurrentUploadSameFilenameReservation(t *testing.T) {
	d, hooked := hookedDistributor(t, 5)
	entered := make(chan struct{})
	gate := make(chan struct{})
	blockFirstPut(hooked, entered, gate)

	data := payload(2*chunkSizeFor(t, privacy.Moderate), 21)
	firstErr := make(chan error, 1)
	go func() {
		_, err := d.Upload("alice", "root", "dup", data, privacy.Moderate, UploadOptions{})
		firstErr <- err
	}()
	<-entered

	within(t, 5*time.Second, "duplicate upload rejection", func() error {
		_, err := d.Upload("alice", "root", "dup", payload(100, 22), privacy.Moderate, UploadOptions{})
		if !errors.Is(err, ErrExists) {
			t.Errorf("concurrent duplicate upload: %v, want ErrExists", err)
		}
		return nil
	})

	close(gate)
	if err := <-firstErr; err != nil {
		t.Fatalf("original upload after release: %v", err)
	}
	got, err := d.GetFile("alice", "root", "dup")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the reserved upload's content must win: %v", err)
	}
}

// TestUpdateFailureMidwayLeavesStateIntact is the regression test for the
// latent UpdateChunk corruption bug: the old implementation mutated the
// chunk row, provider counts and snapshot pointer — and deleted the old
// snapshot — before knowing the post-state write would succeed. Here the
// snapshot write succeeds, the post-state write fails, and failover is
// impossible (the stripe already spans the whole fleet): the update must
// abort leaving the chunk, the previous snapshot, the provider counts and
// the blob population exactly as they were.
func TestUpdateFailureMidwayLeavesStateIntact(t *testing.T) {
	d, hooked := hookedDistributor(t, 5)
	cs := chunkSizeFor(t, privacy.Moderate)
	data := payload(4*cs, 31)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// First update succeeds and establishes a snapshot of the original
	// chunk 1.
	upd1 := payload(cs, 32)
	if err := d.UpdateChunk("alice", "root", "f", 1, upd1, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	orig1 := data[cs : 2*cs]
	if snap, err := d.GetSnapshot("alice", "root", "f", 1); err != nil || !bytes.Equal(snap, orig1) {
		t.Fatalf("snapshot after first update: %v", err)
	}

	keysBefore := make([]int, len(hooked))
	for i, h := range hooked {
		keysBefore[i] = h.Len()
	}
	statsBefore := d.Stats()

	// Second update: put #1 is the new snapshot (succeeds), put #2 the
	// post-state (fails). The stripe's members and parity cover all five
	// providers, so the post-state has nowhere to fail over to.
	failNthFleetPut(hooked, 2)
	upd2 := payload(cs, 33)
	if err := d.UpdateChunk("alice", "root", "f", 1, upd2, UploadOptions{}); err == nil {
		t.Fatal("update should fail when the post-state write cannot be rehomed")
	}

	// Nothing observable may have changed.
	if got, err := d.GetChunk("alice", "root", "f", 1); err != nil || !bytes.Equal(got, upd1) {
		t.Fatalf("chunk content after failed update: %v", err)
	}
	if snap, err := d.GetSnapshot("alice", "root", "f", 1); err != nil || !bytes.Equal(snap, orig1) {
		t.Fatalf("previous snapshot must survive a failed update: %v", err)
	}
	for i, h := range hooked {
		if h.Len() != keysBefore[i] {
			t.Fatalf("provider %d holds %d keys after failed update, had %d", i, h.Len(), keysBefore[i])
		}
	}
	if st := d.Stats(); !equalInts(st.PerProvider, statsBefore.PerProvider) {
		t.Fatalf("provider counts drifted: %v -> %v", statsBefore.PerProvider, st.PerProvider)
	}
	clearPutHooks(hooked)
	rep, err := d.AuditOrphans(false)
	if err != nil {
		t.Fatal(err)
	}
	for prov, keys := range rep.Orphans {
		if len(keys) > 0 {
			t.Fatalf("orphans on %s after aborted update: %v", prov, keys)
		}
	}

	// The fault was transient: the same update must succeed now, retiring
	// the old snapshot for a new one of upd1.
	if err := d.UpdateChunk("alice", "root", "f", 1, upd2, UploadOptions{}); err != nil {
		t.Fatalf("update after fault cleared: %v", err)
	}
	if got, err := d.GetChunk("alice", "root", "f", 1); err != nil || !bytes.Equal(got, upd2) {
		t.Fatalf("chunk content after retried update: %v", err)
	}
	if snap, err := d.GetSnapshot("alice", "root", "f", 1); err != nil || !bytes.Equal(snap, upd1) {
		t.Fatalf("snapshot after retried update: %v", err)
	}
	want := append(append(append([]byte(nil), data[:cs]...), upd2...), data[2*cs:]...)
	if got, err := d.GetFile("alice", "root", "f"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file content after retried update: %v", err)
	}
}

// TestUpdateConflictingRemoveWinsCleanly races an update against a
// removal of the same file: the update is parked inside its first
// provider Put while RemoveFile runs to completion, then resumes, ships
// everything — and must detect at commit that the file is gone, return
// ErrConflict, and roll its blobs back. Generation checking is what makes
// the unlocked ship phase safe; this is its direct test.
func TestUpdateConflictingRemoveWinsCleanly(t *testing.T) {
	d, hooked := hookedDistributor(t, 5)
	cs := chunkSizeFor(t, privacy.Moderate)
	data := payload(4*cs, 41)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	gate := make(chan struct{})
	blockFirstPut(hooked, entered, gate)

	updErr := make(chan error, 1)
	go func() {
		updErr <- d.UpdateChunk("alice", "root", "f", 1, payload(cs, 42), UploadOptions{})
	}()
	<-entered

	within(t, 5*time.Second, "remove during blocked update", func() error {
		return d.RemoveFile("alice", "root", "f")
	})
	close(gate)

	if err := <-updErr; !errors.Is(err, ErrConflict) {
		t.Fatalf("update racing a remove: %v, want ErrConflict", err)
	}
	clearPutHooks(hooked)

	// The remove won; the update's shipped blobs must be rolled back and
	// no trace of the file remain anywhere.
	for i, h := range hooked {
		if h.Len() != 0 {
			t.Fatalf("provider %d holds %d blobs after remove+conflicted update", i, h.Len())
		}
	}
	st := d.Stats()
	if st.Files != 0 || st.Chunks != 0 {
		t.Fatalf("tables not empty after remove: %+v", st)
	}
	rep, err := d.AuditOrphans(false)
	if err != nil {
		t.Fatal(err)
	}
	for prov, keys := range rep.Orphans {
		if len(keys) > 0 {
			t.Fatalf("orphans on %s: %v", prov, keys)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
