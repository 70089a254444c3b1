package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// testFleet builds a fleet of n providers, all PL3/CL varying, no latency.
func testFleet(t *testing.T, n int) *provider.Fleet {
	t.Helper()
	f, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, err := provider.New(provider.Info{
			Name: fmt.Sprintf("P%d", i),
			PL:   privacy.High,
			CL:   privacy.CostLevel(i % 4),
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func testDistributor(t *testing.T, n int) *Distributor {
	t.Helper()
	d, err := New(Config{Fleet: testFleet(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "guest", privacy.Public); err != nil {
		t.Fatal(err)
	}
	return d
}

func payload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil fleet: %v", err)
	}
	emptyFleet, _ := provider.NewFleet()
	if _, err := New(Config{Fleet: emptyFleet}); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty fleet: %v", err)
	}
	f := testFleet(t, 3)
	if _, err := New(Config{Fleet: f, StripeWidth: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad width: %v", err)
	}
	if _, err := New(Config{Fleet: f, Parallelism: -2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad parallelism: %v", err)
	}
	if _, err := New(Config{Fleet: f, DefaultRaid: raid.Level(3)}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad raid: %v", err)
	}
	bad := privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{privacy.Public: -3}}
	if _, err := New(Config{Fleet: f, ChunkPolicy: bad}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad policy: %v", err)
	}
}

func TestRegisterClientAndPasswords(t *testing.T) {
	d := testDistributor(t, 4)
	if err := d.RegisterClient("alice"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate client: %v", err)
	}
	if err := d.RegisterClient(""); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty client: %v", err)
	}
	if err := d.AddPassword("alice", "root", privacy.Low); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate password: %v", err)
	}
	if err := d.AddPassword("nobody", "x", privacy.Low); !errors.Is(err, ErrAuth) {
		t.Fatalf("unknown client: %v", err)
	}
	if err := d.AddPassword("alice", "", privacy.Low); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty password: %v", err)
	}
	if err := d.AddPassword("alice", "p", privacy.Level(7)); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad level: %v", err)
	}
}

func TestUploadAndGetFileRoundTrip(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(200_000, 1)
	info, err := d.Upload("alice", "root", "doc.bin", data, privacy.Moderate, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks < 2 {
		t.Fatalf("chunks = %d, want several", info.Chunks)
	}
	if info.Raid != raid.RAID5 {
		t.Fatalf("raid = %v, want default raid5", info.Raid)
	}
	got, err := d.GetFile("alice", "root", "doc.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUploadValidation(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "", nil, privacy.Low, UploadOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty filename: %v", err)
	}
	if _, err := d.Upload("alice", "root", "f", nil, privacy.Level(9), UploadOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad level: %v", err)
	}
	if _, err := d.Upload("alice", "root", "f", nil, privacy.Low, UploadOptions{MisleadFraction: 1.0}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad fraction: %v", err)
	}
	if _, err := d.Upload("alice", "root", "f", nil, privacy.Low, UploadOptions{Assurance: raid.Level(2)}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad raid: %v", err)
	}
	if _, err := d.Upload("alice", "wrongpw", "f", nil, privacy.Low, UploadOptions{}); !errors.Is(err, ErrAuth) {
		t.Fatalf("wrong password: %v", err)
	}
	if _, err := d.Upload("mallory", "root", "f", nil, privacy.Low, UploadOptions{}); !errors.Is(err, ErrAuth) {
		t.Fatalf("unknown client: %v", err)
	}
	// Low-privilege password cannot upload sensitive data.
	if _, err := d.Upload("alice", "guest", "f", nil, privacy.High, UploadOptions{}); !errors.Is(err, ErrAuth) {
		t.Fatalf("privilege escalation: %v", err)
	}
	// Duplicate filename.
	if _, err := d.Upload("alice", "root", "dup", []byte("x"), privacy.Low, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload("alice", "root", "dup", []byte("y"), privacy.Low, UploadOptions{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate file: %v", err)
	}
}

func TestGetChunkAccessControl(t *testing.T) {
	d := testDistributor(t, 5)
	data := payload(20_000, 2)
	if _, err := d.Upload("alice", "root", "secret", data, privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Privileged password succeeds.
	if _, err := d.GetChunk("alice", "root", "secret", 0); err != nil {
		t.Fatal(err)
	}
	// The paper's denial case: password privilege below chunk PL.
	if _, err := d.GetChunk("alice", "guest", "secret", 0); !errors.Is(err, ErrAuth) {
		t.Fatalf("low-privilege access: %v", err)
	}
	if _, err := d.GetFile("alice", "guest", "secret"); !errors.Is(err, ErrAuth) {
		t.Fatalf("low-privilege file access: %v", err)
	}
	// Bad serials.
	if _, err := d.GetChunk("alice", "root", "secret", -1); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("negative serial: %v", err)
	}
	if _, err := d.GetChunk("alice", "root", "secret", 10_000); !errors.Is(err, ErrNoSuchChunk) {
		t.Fatalf("big serial: %v", err)
	}
	if _, err := d.GetChunk("alice", "root", "nofile", 0); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("no file: %v", err)
	}
}

func TestGetChunkReturnsExactFragment(t *testing.T) {
	// Chunk content must equal the corresponding slice of the original.
	policy := privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
		privacy.Public: 100, privacy.Low: 100, privacy.Moderate: 100, privacy.High: 100,
	}}
	d, err := New(Config{Fleet: testFleet(t, 5), ChunkPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.RegisterClient("c")
	_ = d.AddPassword("c", "p", privacy.High)
	data := payload(250, 3)
	if _, err := d.Upload("c", "p", "f", data, privacy.Low, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	n, err := d.ChunkCount("c", "p", "f")
	if err != nil || n != 3 {
		t.Fatalf("ChunkCount = %d, %v", n, err)
	}
	for s := 0; s < 3; s++ {
		got, err := d.GetChunk("c", "p", "f", s)
		if err != nil {
			t.Fatal(err)
		}
		lo := s * 100
		hi := lo + 100
		if hi > len(data) {
			hi = len(data)
		}
		if !bytes.Equal(got, data[lo:hi]) {
			t.Fatalf("serial %d content mismatch", s)
		}
	}
}

func TestChunkSizeDependsOnPrivacyLevel(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(128<<10, 4)
	pub, err := d.Upload("alice", "root", "pub", data, privacy.Public, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	high, err := d.Upload("alice", "root", "high", data, privacy.High, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if high.Chunks <= pub.Chunks {
		t.Fatalf("PL3 chunks (%d) must exceed PL0 chunks (%d)", high.Chunks, pub.Chunks)
	}
}

func TestPlacementRespectsProviderPL(t *testing.T) {
	// A fleet with mixed PLs: sensitive chunks must never land on
	// low-reputation providers.
	fl, _ := provider.NewFleet(
		provider.MustNew(provider.Info{Name: "trusted1", PL: privacy.High, CL: 3}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "trusted2", PL: privacy.High, CL: 3}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "trusted3", PL: privacy.High, CL: 2}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "shady1", PL: privacy.Public, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "shady2", PL: privacy.Low, CL: 0}, provider.Options{}),
	)
	d, err := New(Config{Fleet: fl})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.RegisterClient("c")
	_ = d.AddPassword("c", "p", privacy.High)
	if _, err := d.Upload("c", "p", "s", payload(64<<10, 5), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	shady1, _, _ := fl.ByName("shady1")
	shady2, _, _ := fl.ByName("shady2")
	if shady1.Len() != 0 || shady2.Len() != 0 {
		t.Fatalf("sensitive chunks on low-PL providers: %d, %d", shady1.Len(), shady2.Len())
	}
	// Public data may use everyone.
	if _, err := d.Upload("c", "p", "open", payload(512<<10, 6), privacy.Public, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if shady1.Len() == 0 && shady2.Len() == 0 {
		t.Fatal("public chunks avoided cheap providers entirely")
	}
}

func TestPlacementPrefersCheaperProviders(t *testing.T) {
	fl, _ := provider.NewFleet(
		provider.MustNew(provider.Info{Name: "pricey", PL: privacy.High, CL: 3}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "cheap1", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "cheap2", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "cheap3", PL: privacy.High, CL: 0}, provider.Options{}),
	)
	d, _ := New(Config{Fleet: fl, StripeWidth: 2})
	_ = d.RegisterClient("c")
	_ = d.AddPassword("c", "p", privacy.High)
	// One stripe: 2 data + 1 parity = 3 shards; all fit on the cheap trio.
	if _, err := d.Upload("c", "p", "f", payload(16<<10, 7), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	pricey, _, _ := fl.ByName("pricey")
	if pricey.Len() != 0 {
		t.Fatalf("expensive provider used (%d shards) while cheap capacity existed", pricey.Len())
	}
}

func TestUploadFailsWithoutEnoughProviders(t *testing.T) {
	// 2 providers cannot host a RAID-6 stripe (needs >= 3 distinct).
	d := testDistributor(t, 2)
	_, err := d.Upload("alice", "root", "f", payload(8<<10, 8), privacy.High, UploadOptions{Assurance: raid.RAID6})
	if !errors.Is(err, ErrPlacement) {
		t.Fatalf("err = %v, want ErrPlacement", err)
	}
}

func TestUploadEmptyFile(t *testing.T) {
	d := testDistributor(t, 4)
	info, err := d.Upload("alice", "root", "empty", nil, privacy.Low, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks != 1 {
		t.Fatalf("chunks = %d, want 1", info.Chunks)
	}
	got, err := d.GetFile("alice", "root", "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestVirtualIDsConcealClientIdentity(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "payroll2026.csv", payload(32<<10, 9), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.fleet.All() {
		for _, key := range p.Keys() {
			lower := strings.ToLower(key)
			if strings.Contains(lower, "alice") || strings.Contains(lower, "payroll") {
				t.Fatalf("virtual id %q leaks client identity", key)
			}
		}
	}
	// All ids unique across providers.
	seen := map[string]bool{}
	for _, p := range d.fleet.All() {
		for _, key := range p.Keys() {
			if seen[key] {
				t.Fatalf("virtual id %q reused", key)
			}
			seen[key] = true
		}
	}
}

func TestStripeShardsOnDistinctProviders(t *testing.T) {
	d := testDistributor(t, 8)
	if _, err := d.Upload("alice", "root", "f", payload(64<<10, 10), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.stripes {
		used := map[int]bool{}
		for _, ci := range st.Members {
			cp := d.chunks[ci].CPIndex
			if used[cp] {
				t.Fatalf("stripe %d reuses provider %d", st.ID, cp)
			}
			used[cp] = true
		}
		for _, ps := range st.Parity {
			if used[ps.CPIndex] {
				t.Fatalf("stripe %d parity shares provider %d with a member", st.ID, ps.CPIndex)
			}
			used[ps.CPIndex] = true
		}
	}
}

func TestStatsAndChunkCountErrors(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.ChunkCount("alice", "root", "nope"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.ChunkCount("alice", "bad", "nope"); !errors.Is(err, ErrAuth) {
		t.Fatalf("err = %v", err)
	}
	_, _ = d.Upload("alice", "root", "a", payload(40<<10, 11), privacy.Low, UploadOptions{})
	s := d.Stats()
	if s.Clients != 1 || s.Files != 1 || s.Chunks < 1 || s.Stripes < 1 || s.ParityShards < 1 {
		t.Fatalf("stats = %+v", s)
	}
	total := 0
	for _, c := range s.PerProvider {
		total += c
	}
	if total != s.Chunks+s.ParityShards {
		t.Fatalf("per-provider total %d != chunks %d + parity %d", total, s.Chunks, s.ParityShards)
	}
}
