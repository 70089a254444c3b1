package cryptofrag

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
)

func baselineFixture(t *testing.T) (*BaselineStore, *provider.MemProvider) {
	t.Helper()
	p := provider.MustNew(provider.Info{Name: "vault", PL: privacy.High, CL: 3}, provider.Options{})
	s, err := NewBaselineStore(p, testKey)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestBaselineStoreRoundTrip(t *testing.T) {
	s, p := baselineFixture(t)
	data := make([]byte, 50_000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	// Ciphertext on the provider, not plaintext.
	for _, blob := range p.Dump() {
		if bytes.Contains(blob, data[:64]) {
			t.Fatal("plaintext visible on provider")
		}
	}
	got, err := s.GetRange("f", 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	if err := s.Put("f", data); err == nil {
		t.Fatal("duplicate Put accepted")
	}
	if _, err := s.GetRange("g", 0, 0); err == nil {
		t.Fatal("read of an unknown file succeeded")
	}
}

func TestBaselineStoreValidation(t *testing.T) {
	if _, err := NewBaselineStore(nil, testKey); err == nil {
		t.Fatal("nil provider accepted")
	}
	p := provider.MustNew(provider.Info{Name: "x", PL: privacy.Low, CL: 0}, provider.Options{})
	if _, err := NewBaselineStore(p, []byte("short")); err == nil {
		t.Fatal("bad key accepted")
	}
}

func TestBaselineGetRange(t *testing.T) {
	s, _ := baselineFixture(t)
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(2)).Read(data)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRange("f", 5_000, 100)
	if err != nil || !bytes.Equal(got, data[5_000:5_100]) {
		t.Fatalf("range: %v", err)
	}
	if _, err := s.GetRange("f", 9_999, 100); err == nil {
		t.Fatal("overflow range accepted")
	}
	if _, err := s.GetRange("f", -1, 5); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestBaselineRangeQueryMovesWholeObject(t *testing.T) {
	// The §VII-E claim as a measured fact: a 100-byte query transfers the
	// entire ciphertext.
	s, _ := baselineFixture(t)
	data := make([]byte, 200_000)
	rand.New(rand.NewSource(3)).Read(data)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	before := s.BytesOut()
	if _, err := s.GetRange("f", 100_000, 100); err != nil {
		t.Fatal(err)
	}
	moved := s.BytesOut() - before
	if moved < int64(len(data)) {
		t.Fatalf("query moved %d bytes, encrypted baseline must move >= %d", moved, len(data))
	}
}
