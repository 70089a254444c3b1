package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/privacy"
	"repro/internal/raid"
)

func TestGetFileSurvivesOneProviderOutageRAID5(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(120_000, 20)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Knock out each provider in turn; RAID-5 must mask every single
	// failure.
	for i := 0; i < 6; i++ {
		p, _ := d.fleet.At(i)
		p.SetOutage(true)
		got, err := d.GetFile("alice", "root", "f")
		if err != nil {
			t.Fatalf("provider %d down: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("provider %d down: data mismatch", i)
		}
		p.SetOutage(false)
	}
}

func TestGetFileSurvivesTwoOutagesRAID6(t *testing.T) {
	d := testDistributor(t, 7)
	data := payload(100_000, 21)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Assurance: raid.RAID6}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			pi, _ := d.fleet.At(i)
			pj, _ := d.fleet.At(j)
			pi.SetOutage(true)
			pj.SetOutage(true)
			got, err := d.GetFile("alice", "root", "f")
			if err != nil {
				t.Fatalf("providers %d,%d down: %v", i, j, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("providers %d,%d down: mismatch", i, j)
			}
			pi.SetOutage(false)
			pj.SetOutage(false)
		}
	}
}

func TestRAID5FailsUnderTwoOutages(t *testing.T) {
	// Stripe width 2 + parity on a 3-provider fleet: every stripe touches
	// all three providers, so two outages must make some chunk
	// unrecoverable.
	d, err := New(Config{Fleet: testFleet(t, 3), StripeWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.RegisterClient("alice")
	_ = d.AddPassword("alice", "root", privacy.High)
	if _, err := d.Upload("alice", "root", "f", payload(60_000, 22), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	p0, _ := d.fleet.At(0)
	p1, _ := d.fleet.At(1)
	p0.SetOutage(true)
	p1.SetOutage(true)
	if _, err := d.GetFile("alice", "root", "f"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestNoParityFailsUnderOneOutage(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "f", payload(50_000, 23), privacy.Moderate, UploadOptions{NoParity: true}); err != nil {
		t.Fatal(err)
	}
	// Find a provider actually hosting a shard and fail it.
	failed := false
	for i := 0; i < 4; i++ {
		p, _ := d.fleet.At(i)
		if p.Len() == 0 {
			continue
		}
		p.SetOutage(true)
		_, err := d.GetFile("alice", "root", "f")
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("provider %d down without parity: err = %v", i, err)
		}
		p.SetOutage(false)
		failed = true
		break
	}
	if !failed {
		t.Fatal("no provider hosted any shard")
	}
}

func TestRecoveryWithMisleadingData(t *testing.T) {
	// RAID reconstruction must compose with mislead stripping: parity is
	// computed over the inflated payloads.
	d := testDistributor(t, 6)
	data := payload(80_000, 24)
	if _, err := d.Upload("alice", "root", "f", data, privacy.High, UploadOptions{MisleadFraction: 0.3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p, _ := d.fleet.At(i)
		p.SetOutage(true)
		got, err := d.GetFile("alice", "root", "f")
		if err != nil {
			t.Fatalf("provider %d down: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("provider %d down: mismatch", i)
		}
		p.SetOutage(false)
	}
}

func TestCorruptedShardDetectedAndRecovered(t *testing.T) {
	d := testDistributor(t, 5)
	data := payload(30_000, 25)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one stored shard in place (same length, flipped bytes).
	d.mu.Lock()
	entry := d.chunks[0]
	d.mu.Unlock()
	p, _ := d.fleet.At(entry.CPIndex)
	stored, err := p.Get(entry.VirtualID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stored {
		stored[i] ^= 0xA5
	}
	if err := p.Put(entry.VirtualID, stored); err != nil {
		t.Fatal(err)
	}
	// Same length ⇒ the provider's answer is plausible, but the rung's
	// end-to-end checksum rejects it and the ladder falls through to RAID
	// reconstruction: the client gets the true bytes, never the rot.
	got, err := d.GetChunk("alice", "root", "f", 0)
	if err != nil {
		t.Fatalf("GetChunk should rescue silent corruption via parity: %v", err)
	}
	want := data[:len(got)]
	if !bytes.Equal(got, want) {
		t.Fatal("rescued chunk bytes mismatch")
	}
	m := d.Metrics()
	if m.CorruptionsDetected == 0 {
		t.Fatal("CorruptionsDetected = 0, want > 0")
	}
	if m.Reconstructions == 0 {
		t.Fatal("Reconstructions = 0, want > 0 (rescue must come from parity)")
	}
}

func TestTruncatedShardTriggersReconstruction(t *testing.T) {
	d := testDistributor(t, 5)
	data := payload(30_000, 26)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	entry := d.chunks[0]
	d.mu.Unlock()
	p, _ := d.fleet.At(entry.CPIndex)
	// Replace the shard with a truncated blob: length check fails and the
	// distributor reconstructs from parity.
	if err := p.Put(entry.VirtualID, []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetChunk("alice", "root", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := privacy.DefaultChunkSizes().Size(privacy.Moderate)
	if !bytes.Equal(got, data[:size]) {
		t.Fatal("reconstructed chunk mismatch")
	}
}
