package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/privacy"
)

var encKey = bytes.Repeat([]byte{0x5C}, 32)

func TestEncryptedUploadRoundTrip(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(80_000, 100)
	if _, err := d.Upload("alice", "root", "f", data, privacy.High, UploadOptions{EncryptKey: encKey}); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetFile("alice", "root", "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	// Providers never see plaintext.
	probe := data[:64]
	for _, p := range d.fleet.All() {
		for _, blob := range p.Dump() {
			if bytes.Contains(blob, probe) {
				t.Fatalf("plaintext fragment on provider %s", p.Info().Name)
			}
		}
	}
}

func TestEncryptedUploadValidation(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "f", []byte("x"), privacy.Low, UploadOptions{EncryptKey: []byte("short")}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad key: %v", err)
	}
	if _, err := d.Upload("alice", "root", "f", []byte("x"), privacy.Low, UploadOptions{EncryptKey: encKey, MisleadFraction: 0.2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("enc+mislead: %v", err)
	}
	if _, err := d.Upload("alice", "root", "f", []byte("x"), privacy.Low, UploadOptions{EncryptKey: encKey, MisleadLines: [][]byte{[]byte("d")}}); !errors.Is(err, ErrConfig) {
		t.Fatalf("enc+misleadlines: %v", err)
	}
}

func TestEncryptedChunksSurviveOutage(t *testing.T) {
	// Parity is computed over ciphertext; reconstruction must still yield
	// decryptable chunks.
	d := testDistributor(t, 6)
	data := payload(60_000, 101)
	if _, err := d.Upload("alice", "root", "f", data, privacy.High, UploadOptions{EncryptKey: encKey}); err != nil {
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

func TestEncryptedRangeRead(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(50_000, 102)
	if _, err := d.Upload("alice", "root", "f", data, privacy.High, UploadOptions{EncryptKey: encKey}); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetRange("alice", "root", "f", 20_000, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[20_000:25_000]) {
		t.Fatal("encrypted range mismatch")
	}
}

func TestEncryptedUpdateChunk(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(30_000, 103)
	if _, err := d.Upload("alice", "root", "f", data, privacy.High, UploadOptions{EncryptKey: encKey}); err != nil {
		t.Fatal(err)
	}
	newChunk := []byte("fresh encrypted contents")
	if err := d.UpdateChunk("alice", "root", "f", 0, newChunk, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetChunk("alice", "root", "f", 0)
	if err != nil || !bytes.Equal(got, newChunk) {
		t.Fatalf("updated encrypted chunk: %v", err)
	}
	// Update with mislead on an encrypted file is rejected.
	if err := d.UpdateChunk("alice", "root", "f", 0, []byte("x"), UploadOptions{MisleadFraction: 0.2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("enc+mislead update: %v", err)
	}
	// The ciphertext on the provider changed and is not the plaintext.
	d.mu.Lock()
	entry := d.chunks[0]
	d.mu.Unlock()
	p, _ := d.fleet.At(entry.CPIndex)
	stored, _ := p.Get(entry.VirtualID)
	if bytes.Contains(stored, newChunk) {
		t.Fatal("plaintext visible after update")
	}
}

func TestEncryptedAttackYieldsNothing(t *testing.T) {
	// An insider dumping the provider sees only ciphertext: a mining
	// attack parses zero rows.
	d := testDistributor(t, 4)
	// Upload a CSV that would normally leak.
	csvLike := []byte("year,company,materials\n2001,Greece,1300\n2002,Rome,1400\n")
	if _, err := d.Upload("alice", "root", "bids.csv", csvLike, privacy.High, UploadOptions{EncryptKey: encKey}); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.fleet.All() {
		for _, blob := range p.Dump() {
			if bytes.Contains(blob, []byte("Greece")) {
				t.Fatal("plaintext row visible to insider")
			}
		}
	}
}
