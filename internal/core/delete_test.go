package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// uploadDefended stores a 1 MiB PL3 RAID-6 file on a six-provider fleet:
// 128 chunks in 32 stripes of 4+2, so 32 blobs — one delete call — on
// every provider.
func uploadDefended(t *testing.T, d *Distributor) {
	t.Helper()
	data := payload(128*chunkSizeFor(t, privacy.High), 900)
	if _, err := d.Upload("alice", "root", "f", data, privacy.High, UploadOptions{Assurance: raid.RAID6, MisleadFraction: 0.25}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteStepResendsTransientFaults: a key that fails with the
// providers' transient fault is sent again, up to transientRetries
// attempts as for any single operation, and one that keeps failing makes
// the remove incomplete.
func TestDeleteStepResendsTransientFaults(t *testing.T) {
	for _, tc := range []struct {
		name      string
		failFirst int // attempts of every key that fail
		wantErr   bool
	}{
		{"recovers", transientRetries - 1, false},
		{"exhausted", transientRetries, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, hooked := hookedDistributor(t, 6)
			uploadDefended(t, d)
			var mu sync.Mutex
			attempts := map[string]int{}
			for _, h := range hooked {
				h.SetBeforeDelete(func(key string) error {
					mu.Lock()
					defer mu.Unlock()
					if attempts[key]++; attempts[key] <= tc.failFirst {
						return provider.ErrInjected
					}
					return nil
				})
			}
			before := d.Metrics()
			err := d.RemoveFile("alice", "root", "f")
			if (err != nil) != tc.wantErr || (err != nil && !errors.Is(err, provider.ErrInjected)) {
				t.Fatalf("RemoveFile = %v, want an error: %v", err, tc.wantErr)
			}
			want := min(tc.failFirst+1, transientRetries)
			for key, n := range attempts {
				if n != want {
					t.Fatalf("key %s was sent %d times, want %d", key, n, want)
				}
			}
			m := d.Metrics()
			if calls, blobs := m.BulkDeletes-before.BulkDeletes, m.BulkDeleteBlobs-before.BulkDeleteBlobs; calls != 6 || blobs != 192 || len(attempts) != 192 {
				t.Fatalf("%d calls for %d blobs (%d keys sent), want 6 for 192", calls, blobs, len(attempts))
			}
			if n := m.TransientRetries - before.TransientRetries; n != int64(192*(want-1)) {
				t.Fatalf("TransientRetries = %d, want one per key resent: %d", n, 192*(want-1))
			}
		})
	}
}

// TestDeleteStepHealthSamples: each call of the delete step is one health
// sample, whatever its size. A call the provider answered for any key is
// a success — half its keys failing, or every key already gone: a key it
// no longer has is done, not failed — and one it answered for none is one
// failure.
func TestDeleteStepHealthSamples(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	uploadDefended(t, d)
	const dark, emptied, partial = 0, 1, 2
	hooked[dark].SetBeforeDelete(func(string) error { return provider.ErrOutage })
	n := 0 // Parallelism 1: one delete at a time
	hooked[partial].SetBeforeDelete(func(string) error {
		if n++; n%2 == 0 {
			return provider.ErrOutage
		}
		return nil
	})
	for _, key := range hooked[emptied].Keys() {
		if err := hooked[emptied].Delete(key); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Health().Providers
	if err := d.RemoveFile("alice", "root", "f"); !errors.Is(err, provider.ErrOutage) {
		t.Fatalf("RemoveFile with provider %d failing every delete = %v, want remove incomplete: outage", dark, err)
	}
	for i, h := range d.Health().Providers {
		succ, fail := h.Successes-before[i].Successes, h.Failures-before[i].Failures
		want := [2]int64{1, 0}
		if i == dark {
			want = [2]int64{0, 1}
		}
		if [2]int64{succ, fail} != want {
			t.Errorf("provider %d: %d successes and %d failures from its one call, want %v", i, succ, fail, want)
		}
	}

	// With the providers back the retried remove finishes, the not-found
	// keys included.
	hooked[dark].SetBeforeDelete(nil)
	hooked[partial].SetBeforeDelete(nil)
	if err := d.RemoveFile("alice", "root", "f"); err != nil {
		t.Fatalf("retried RemoveFile: %v", err)
	}
	for i, h := range hooked {
		if h.Len() != 0 {
			t.Errorf("provider %d holds %d blobs", i, h.Len())
		}
	}
}
