package core

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/privacy"
)

func TestPRFAllocatorUnique(t *testing.T) {
	a := NewPRFAllocator([]byte("secret"))
	seen := map[string]bool{}
	for i := 0; i < 10_000; i++ {
		id := a.Next()
		if seen[id] {
			t.Fatalf("duplicate id %s at %d", id, i)
		}
		if len(id) != 16 {
			t.Fatalf("id length = %d", len(id))
		}
		seen[id] = true
	}
}

func TestPRFAllocatorDeterministicPerSecret(t *testing.T) {
	a := NewPRFAllocator([]byte("k1"))
	b := NewPRFAllocator([]byte("k1"))
	c := NewPRFAllocator([]byte("k2"))
	ida, idb, idc := a.Next(), b.Next(), c.Next()
	if ida != idb {
		t.Fatal("same secret gave different sequences")
	}
	if ida == idc {
		t.Fatal("different secrets gave the same id")
	}
}

func TestPRFAllocatorCopiesSecret(t *testing.T) {
	secret := []byte("mutable")
	a := NewPRFAllocator(secret)
	first := a.Next()
	secret[0] = 'X'
	b := NewPRFAllocator([]byte("mutable"))
	if b.Next() != first {
		t.Fatal("allocator aliased caller's secret buffer")
	}
}

// The allocator keeps one keyed MAC and resets it per id; every id must
// still be HMAC-SHA256(secret, counter) keyed afresh, byte for byte.
func TestPRFAllocatorMatchesFreshHMAC(t *testing.T) {
	secret := []byte("distributor-secret")
	a := NewPRFAllocator(secret)
	for i := uint64(0); i < 1000; i++ {
		var ctr [8]byte
		binary.BigEndian.PutUint64(ctr[:], i)
		mac := hmac.New(sha256.New, secret)
		mac.Write(ctr[:])
		if got, want := a.Next(), hex.EncodeToString(mac.Sum(nil)[:8]); got != want {
			t.Fatalf("id %d = %s, want %s", i, got, want)
		}
	}
}

// Placement mints ids under the table lock, so an id may allocate its
// hex string and nothing else: no re-keyed MAC, no digest slice.
func TestPRFAllocatorNextAllocatesOnlyTheID(t *testing.T) {
	a := NewPRFAllocator([]byte("secret"))
	if n := testing.AllocsPerRun(1000, func() { _ = a.Next() }); n > 1 {
		t.Fatalf("Next allocates %.1f times per id, want at most 1 (the string)", n)
	}
}

func TestScriptedAllocator(t *testing.T) {
	s := NewScriptedAllocator([]string{"a", "b"})
	if s.Next() != "a" || s.Next() != "b" {
		t.Fatal("scripted sequence wrong")
	}
	// Falls back to PRF afterwards, still unique.
	x, y := s.Next(), s.Next()
	if x == y || x == "a" || x == "b" {
		t.Fatalf("fallback ids: %s, %s", x, y)
	}
}

// Property: upload → get round-trips for arbitrary sizes, levels and raid
// settings.
func TestUploadGetRoundTripProperty(t *testing.T) {
	d := testDistributor(t, 7)
	i := 0
	f := func(sz uint16, lvl uint8, raid6 bool, misl uint8) bool {
		i++
		size := int(sz) % 40_000
		level := privacy.Level(lvl % 4)
		data := payload(size, int64(i))
		opts := UploadOptions{MisleadFraction: float64(misl%50) / 100}
		if raid6 {
			opts.Assurance = 6
		}
		name := string(rune('A'+i%26)) + string(rune('0'+i/26))
		if _, err := d.Upload("alice", "root", name, data, level, opts); err != nil {
			return false
		}
		got, err := d.GetFile("alice", "root", name)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any upload, every chunk of every stripe sits on a
// provider whose PL >= the chunk's PL, and per-provider counts equal the
// table counts.
func TestPlacementInvariantProperty(t *testing.T) {
	d := testDistributor(t, 6)
	i := 100
	f := func(sz uint16, lvl uint8) bool {
		i++
		level := privacy.Level(lvl % 4)
		name := string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
		if _, err := d.Upload("alice", "root", name, payload(int(sz)%30_000, int64(i)), level, UploadOptions{}); err != nil {
			return false
		}
		for _, r := range d.ChunkTable() {
			p, err := d.fleet.At(r.CPIndex)
			if err != nil || p.Info().PL < r.PL {
				return false
			}
		}
		// Provider key counts match the distributor's accounting.
		for idx, p := range d.fleet.All() {
			if p.Len() != d.Stats().PerProvider[idx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}
