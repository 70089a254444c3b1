package privcloud

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func demoSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{
		Providers: []ProviderSpec{
			{Name: "alpha", Privacy: High, Cost: 2},
			{Name: "beta", Privacy: High, Cost: 1},
			{Name: "gamma", Privacy: High, Cost: 0},
			{Name: "delta", Privacy: Moderate, Cost: 0},
			{Name: "epsilon", Privacy: High, Cost: 3},
			{Name: "zeta", Privacy: Low, Cost: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterClient("acme"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPassword("acme", "s3cret", High); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemEndToEnd(t *testing.T) {
	sys := demoSystem(t)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 70_000)
	rng.Read(data)
	info, err := sys.Upload("acme", "s3cret", "ledger.csv", data, High, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks < 2 || info.Raid != Raid5 {
		t.Fatalf("info = %+v", info)
	}
	n, err := sys.ChunkCount("acme", "s3cret", "ledger.csv")
	if err != nil || n != info.Chunks {
		t.Fatalf("ChunkCount = %d, %v", n, err)
	}
	back, err := sys.GetFile("acme", "s3cret", "ledger.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip mismatch")
	}
	chunk, err := sys.GetChunk("acme", "s3cret", "ledger.csv", 0)
	if err != nil || !bytes.Equal(chunk, data[:len(chunk)]) {
		t.Fatalf("chunk: %v", err)
	}
	st := sys.Stats()
	if st.Chunks != info.Chunks || st.Files != 1 || st.Clients != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSystemOutageRecovery(t *testing.T) {
	sys := demoSystem(t)
	data := make([]byte, 50_000)
	rand.New(rand.NewSource(2)).Read(data)
	if _, err := sys.Upload("acme", "s3cret", "f", data, Moderate, UploadOptions{Assurance: Raid6}); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetProviderOutage("alpha", true); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetProviderOutage("beta", true); err != nil {
		t.Fatal(err)
	}
	back, err := sys.GetFile("acme", "s3cret", "f")
	if err != nil {
		t.Fatalf("RAID-6 should mask two outages: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("recovered data mismatch")
	}
	if err := sys.SetProviderOutage("ghost", true); err == nil {
		t.Fatal("unknown provider accepted")
	}
}

func TestSystemLifecycle(t *testing.T) {
	sys := demoSystem(t)
	orig := []byte("version one of the chunk .........")
	if _, err := sys.Upload("acme", "s3cret", "f", orig, Low, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sys.UpdateChunk("acme", "s3cret", "f", 0, []byte("version two"), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.GetSnapshot("acme", "s3cret", "f", 0)
	if err != nil || !bytes.Equal(snap, orig) {
		t.Fatalf("snapshot: %q, %v", snap, err)
	}
	if err := sys.RemoveChunk("acme", "s3cret", "f", 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveFile("acme", "s3cret", "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GetFile("acme", "s3cret", "f"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("err = %v", err)
	}
}

func TestSystemAccessControl(t *testing.T) {
	sys := demoSystem(t)
	if err := sys.AddPassword("acme", "weak", Public); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Upload("acme", "s3cret", "s", []byte("x"), High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GetFile("acme", "weak", "s"); !errors.Is(err, ErrAuth) {
		t.Fatalf("weak password: %v", err)
	}
	if _, err := sys.GetFile("acme", "nope", "s"); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong password: %v", err)
	}
}

func TestSystemConfigValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty config: %v", err)
	}
	if _, err := NewSystem(SystemConfig{Providers: []ProviderSpec{{Name: "", Privacy: Low}}}); err == nil {
		t.Fatal("empty provider name accepted")
	}
	if _, err := NewSystem(SystemConfig{Providers: []ProviderSpec{
		{Name: "a", Privacy: High}, {Name: "a", Privacy: Low},
	}}); err == nil {
		t.Fatal("duplicate provider accepted")
	}
	if _, err := NewSystem(SystemConfig{Providers: []ProviderSpec{{Name: "a", Privacy: High, Cost: 9}}}); err == nil {
		t.Fatal("bad cost level accepted")
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := demoSystem(t)
	if sys.Distributor == nil || sys.Fleet() == nil {
		t.Fatal("accessors returned nil")
	}
	if sys.Fleet().Len() != 6 {
		t.Fatalf("fleet len = %d", sys.Fleet().Len())
	}
}

func TestSystemStreaming(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		Providers: []ProviderSpec{
			{Name: "alpha", Privacy: High, Cost: 1},
			{Name: "beta", Privacy: High, Cost: 1},
			{Name: "gamma", Privacy: High, Cost: 1},
			{Name: "delta", Privacy: High, Cost: 1},
			{Name: "epsilon", Privacy: High, Cost: 1},
		},
		StreamWindow: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterClient("acme"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPassword("acme", "s3cret", High); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 120_000)
	rng.Read(data)
	info, err := sys.UploadStream("acme", "s3cret", "big.dat", bytes.NewReader(data), High, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes != len(data) {
		t.Fatalf("info = %+v", info)
	}
	var buf bytes.Buffer
	n, err := sys.GetFileTo(&buf, "acme", "s3cret", "big.dat")
	if err != nil || n != int64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("GetFileTo: n=%d err=%v", n, err)
	}
	// The buffered surface reads what the streaming surface wrote.
	got, err := sys.GetFile("acme", "s3cret", "big.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GetFile interop: %v", err)
	}
	m := sys.Metrics()
	if m.StreamUploads != 1 || m.StreamReads != 1 {
		t.Fatalf("stream counters: %+v", m)
	}
	if _, err := sys.UploadStream("acme", "s3cret", "big.dat", bytes.NewReader(data), High, UploadOptions{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate UploadStream: %v", err)
	}
}
