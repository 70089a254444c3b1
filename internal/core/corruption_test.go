package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// corruptServedBytes makes every Get from the provider return the stored
// length with flipped bytes — silent rot in flight, the store untouched.
func corruptServedBytes(h *provider.MemProvider) {
	h.SetTransformGet(func(_ string, data []byte) []byte {
		for i := range data {
			data[i] ^= 0xA5
		}
		return data
	})
}

func TestGetRangeCorruptionRescuedByParity(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	data := payload(60_000, 51)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Assurance: raid.RAID5}); err != nil {
		t.Fatal(err)
	}

	// Find the provider of serial 0 and corrupt everything it serves:
	// right length, wrong bytes. The range read must detect the rot and
	// rescue the true bytes from parity, never serve garbage.
	d.mu.RLock()
	provIdx := d.chunks[d.clients["alice"].Files["f"].ChunkIdx[0]].CPIndex
	chunkLen := d.chunks[d.clients["alice"].Files["f"].ChunkIdx[0]].DataLen
	d.mu.RUnlock()
	corruptServedBytes(hooked[provIdx])

	for _, span := range [][2]int{{0, 100}, {chunkLen - 50, 100}, {0, chunkLen}} {
		got, err := d.GetRange("alice", "root", "f", span[0], span[1])
		if err != nil {
			t.Fatalf("GetRange(%d,%d) under corruption: %v", span[0], span[1], err)
		}
		if !bytes.Equal(got, data[span[0]:span[0]+span[1]]) {
			t.Fatalf("GetRange(%d,%d) served wrong bytes under corruption", span[0], span[1])
		}
	}
	m := d.Metrics()
	if m.CorruptionsDetected == 0 {
		t.Fatal("CorruptionsDetected = 0, want > 0")
	}
	if m.Reconstructions == 0 {
		t.Fatal("Reconstructions = 0, want > 0 (rescue must come from RAID peers)")
	}
}

func TestGetRangeCorruptionWithoutRedundancyFailsClosed(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	data := payload(20_000, 52)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{NoParity: true}); err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	provIdx := d.chunks[d.clients["alice"].Files["f"].ChunkIdx[0]].CPIndex
	d.mu.RUnlock()
	corruptServedBytes(hooked[provIdx])

	// No parity and no mirrors: nothing can rescue the bytes, so the read
	// must fail — wrong bytes must never reach the client.
	if _, err := d.GetRange("alice", "root", "f", 0, 100); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("GetRange on unrescuable corruption = %v, want ErrUnavailable", err)
	}
	if d.Metrics().CorruptionsDetected == 0 {
		t.Fatal("CorruptionsDetected = 0, want > 0")
	}
}

func TestGetRangeCorruptionRescuedByMirror(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	data := payload(20_000, 53)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{NoParity: true, Replicas: 1, MisleadFraction: 0.2}); err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	provIdx := d.chunks[d.clients["alice"].Files["f"].ChunkIdx[0]].CPIndex
	d.mu.RUnlock()
	corruptServedBytes(hooked[provIdx])

	got, err := d.GetRange("alice", "root", "f", 100, 500)
	if err != nil {
		t.Fatalf("GetRange under corruption with a mirror: %v", err)
	}
	if !bytes.Equal(got, data[100:600]) {
		t.Fatal("GetRange served wrong bytes")
	}
	if d.Metrics().MirrorHits == 0 {
		t.Fatal("MirrorHits = 0, want > 0 (rescue must come from the replica)")
	}
}

// TestUnlistedChunkServedByItsCopiesOnly: a chunk its stripe does not
// list is served by its primary, then its mirrors, and never
// reconstructed — the stripe has no slot for it to be solved into.
func TestUnlistedChunkServedByItsCopiesOnly(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	data := payload(40_000, 54)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Assurance: raid.RAID5, Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	c := d.chunks[d.clients["alice"].Files["f"].ChunkIdx[0]]
	st := &d.stripes[c.StripeID]
	st.Members = st.Members[1:] // serial 0 is the stripe's first member
	d.mu.Unlock()
	size, _ := privacy.DefaultChunkSizes().Size(privacy.Moderate)

	corruptServedBytes(hooked[c.CPIndex])
	if got, err := d.GetChunk("alice", "root", "f", 0); err != nil || !bytes.Equal(got, data[:size]) {
		t.Fatalf("unlisted chunk with a corrupt primary: %v, want its mirror's bytes", err)
	}
	corruptServedBytes(hooked[c.Mirrors[0].CPIndex])
	if _, err := d.GetChunk("alice", "root", "f", 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("unlisted chunk with every copy corrupt = %v, want ErrUnavailable", err)
	}
}
