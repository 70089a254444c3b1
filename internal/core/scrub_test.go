package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// TestScrubProviderCalls pins the scrub's provider arithmetic: one pass
// per stripe makes one get per stored blob, whatever it finds, and
// rewrites only the blob that failed — one put for one damaged blob,
// to that blob.
func TestScrubProviderCalls(t *testing.T) {
	for _, level := range []raid.Level{raid.RAID5, raid.RAID6} {
		for _, replicas := range []int{0, 1} {
			for _, damage := range []BlobKind{"", BlobChunk, BlobMirror, BlobParity} {
				if damage == BlobMirror && replicas == 0 {
					continue
				}
				t.Run(fmt.Sprintf("%v/replicas=%d/damaged=%q", level, replicas, damage), func(t *testing.T) {
					d, hooked := hookedDistributor(t, 8)
					// 7 chunks: two stripes of width 4 and 3.
					opts := UploadOptions{Assurance: level, Replicas: replicas}
					if _, err := d.Upload("alice", "root", "f", payload(100_000, 93), privacy.Moderate, opts); err != nil {
						t.Fatal(err)
					}
					blobs := StateOf(d).Blobs
					var victim BlobView
					if damage != "" {
						victim = blobs[slices.IndexFunc(blobs, func(b BlobView) bool { return b.Kind == damage })]
						rot(t, hooked[victim.ProvIdx], victim.VID)
					}

					var gets atomic.Int64
					var mu sync.Mutex
					var puts []string
					for _, h := range hooked {
						h.SetBeforeGet(func(string) error { gets.Add(1); return nil })
						h.SetBeforePut(func(_ int, key string) error {
							mu.Lock()
							defer mu.Unlock()
							puts = append(puts, key)
							return nil
						})
					}
					rep, err := d.Scrub()
					if err != nil {
						t.Fatal(err)
					}
					if int(gets.Load()) != len(blobs) {
						t.Errorf("scrub made %d gets for %d stored blobs", gets.Load(), len(blobs))
					}
					var want []string
					if damage != "" {
						want = []string{victim.VID}
					}
					if !slices.Equal(puts, want) {
						t.Errorf("scrub put %v, want %v (%+v)", puts, want, rep)
					}
					if rep.Repaired+rep.ParityRepaired != len(want) || rep.Unrepairable+rep.ParityUnrepairable != 0 {
						t.Errorf("scrub = %+v, want %d repair", rep, len(want))
					}
					if again, err := d.Scrub(); err != nil || again.Healthy != again.ChunksChecked ||
						again.Repaired+again.ParityRepaired != 0 {
						t.Errorf("second scrub = %+v, %v", again, err)
					}
				})
			}
		}
	}
}

// rot flips every byte of one stored blob: same length, wrong bytes.
func rot(t *testing.T, p provider.Provider, vid string) {
	t.Helper()
	b, err := p.Get(vid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] ^= 0x5A
	}
	if err := p.Put(vid, b); err != nil {
		t.Fatal(err)
	}
}

// TestScrubSkipsChunkMutatedMidScrub: a write that commits while the scrub
// reads retires the blobs the scrub read — they look missing, not
// damaged, and the chunk must count as Skipped, never Unrepairable.
func TestScrubSkipsChunkMutatedMidScrub(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(d *Distributor) error
	}{
		{"update", func(d *Distributor) error {
			return d.UpdateChunk("alice", "root", "f", 0, payload(3_000, 95), UploadOptions{})
		}},
		{"remove", func(d *Distributor) error { return d.RemoveFile("alice", "root", "f") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, hooked := hookedDistributor(t, 6)
			if _, err := d.Upload("alice", "root", "f", payload(5_000, 94), privacy.Low, UploadOptions{}); err != nil {
				t.Fatal(err)
			}
			// The scrub's first get runs the write to completion first.
			var fired atomic.Bool
			var mutErr error
			for _, h := range hooked {
				h.SetBeforeGet(func(string) error {
					if fired.CompareAndSwap(false, true) {
						mutErr = tc.mutate(d)
					}
					return nil
				})
			}
			rep, err := d.Scrub()
			if err != nil || mutErr != nil {
				t.Fatal(err, mutErr)
			}
			if rep.Skipped != 1 || rep.Unrepairable != 0 || rep.ParityUnrepairable != 0 {
				t.Fatalf("scrub racing %s = %+v, want the chunk skipped", tc.name, rep)
			}
		})
	}
}
