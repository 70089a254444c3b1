package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/privacy"
)

func TestGetRangeBasic(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(100_000, 80)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// A point query in the middle.
	got, err := d.GetRange("alice", "root", "f", 50_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[50_000:51_000]) {
		t.Fatal("range content mismatch")
	}
	// Whole file via range.
	got, err = d.GetRange("alice", "root", "f", 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("full-range mismatch")
	}
	// Empty range.
	got, err = d.GetRange("alice", "root", "f", 10, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty range: %d bytes, %v", len(got), err)
	}
}

func TestGetRangeTouchesOnlyOverlappingProviders(t *testing.T) {
	// A point query must hit at most 2 chunks' worth of providers —
	// §VII-E's efficiency claim made observable via provider counters.
	d := testDistributor(t, 6)
	data := payload(160_000, 81)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{NoParity: true}); err != nil {
		t.Fatal(err)
	}
	before := int64(0)
	for _, p := range d.fleet.All() {
		before += p.Usage().Gets
	}
	if _, err := d.GetRange("alice", "root", "f", 80_000, 100); err != nil {
		t.Fatal(err)
	}
	after := int64(0)
	for _, p := range d.fleet.All() {
		after += p.Usage().Gets
	}
	if gets := after - before; gets > 2 {
		t.Fatalf("point query performed %d provider gets, want <= 2", gets)
	}
}

func TestGetRangeValidation(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "f", payload(10_000, 82), privacy.Low, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetRange("alice", "root", "f", -1, 5); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative offset: %v", err)
	}
	if _, err := d.GetRange("alice", "root", "f", 0, -5); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative length: %v", err)
	}
	if _, err := d.GetRange("alice", "root", "f", 9_999, 100); !errors.Is(err, ErrRange) {
		t.Fatalf("overflow range: %v", err)
	}
	// offset+length must not be computed in int: the first of these used
	// to wrap negative and return zero bytes with a nil error, the second
	// panicked sizing the output buffer.
	if got, err := d.GetRange("alice", "root", "f", math.MaxInt, 1); !errors.Is(err, ErrRange) {
		t.Fatalf("offset MaxInt: %d bytes, %v", len(got), err)
	}
	if got, err := d.GetRange("alice", "root", "f", 10, math.MaxInt); !errors.Is(err, ErrRange) {
		t.Fatalf("length MaxInt: %d bytes, %v", len(got), err)
	}
	if got, err := d.GetRange("alice", "root", "f", 10_000, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty range at the end: %d bytes, %v", len(got), err)
	}
	if _, err := d.GetRange("alice", "root", "nope", 0, 1); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("missing file: %v", err)
	}
	if _, err := d.GetRange("alice", "bad", "f", 0, 1); !errors.Is(err, ErrAuth) {
		t.Fatalf("bad password: %v", err)
	}
}

func TestGetRangeWithMisleadingData(t *testing.T) {
	// Decoy bytes inflate stored payloads but must be invisible to range
	// arithmetic.
	d := testDistributor(t, 6)
	data := payload(60_000, 83)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{MisleadFraction: 0.3}); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetRange("alice", "root", "f", 20_000, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[20_000:25_000]) {
		t.Fatal("range over misleading data mismatch")
	}
}

// Property: GetRange(o, l) == data[o:o+l] for arbitrary valid ranges.
func TestGetRangeProperty(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(80_000, 84)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := rng.Intn(len(data))
		l := rng.Intn(len(data) - o)
		got, err := d.GetRange("alice", "root", "f", o, l)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data[o:o+l])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScrubHealthySystem(t *testing.T) {
	d := testDistributor(t, 6)
	if _, err := d.Upload("alice", "root", "f", payload(60_000, 85), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 0 || rep.Unrepairable != 0 {
		t.Fatalf("healthy scrub = %+v", rep)
	}
	if rep.Healthy != rep.ChunksChecked || rep.ChunksChecked == 0 {
		t.Fatalf("scrub = %+v", rep)
	}
}

func TestScrubRepairsCorruption(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(128_000, 86) // 8 chunks → 2 stripes of width 4
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one chunk per stripe (RAID-5 tolerates one loss per stripe).
	d.mu.Lock()
	victims := []chunkEntry{d.chunks[0], d.chunks[5]}
	if d.chunks[0].StripeID == d.chunks[5].StripeID {
		d.mu.Unlock()
		t.Fatal("test setup: victims share a stripe")
	}
	d.mu.Unlock()
	for _, v := range victims {
		p, _ := d.fleet.At(v.CPIndex)
		stored, err := p.Get(v.VirtualID)
		if err != nil {
			t.Fatal(err)
		}
		for i := range stored {
			stored[i] ^= 0x5A
		}
		if err := p.Put(v.VirtualID, stored); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 2 {
		t.Fatalf("scrub repaired %d, want 2 (%+v)", rep.Repaired, rep)
	}
	// Data now reads cleanly even with the parity path cut off, proving
	// the primary copy itself was fixed.
	got, err := d.GetFile("alice", "root", "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-scrub read: %v", err)
	}
	again, err := d.Scrub()
	if err != nil || again.Repaired != 0 || again.Healthy != again.ChunksChecked {
		t.Fatalf("second scrub = %+v, %v", again, err)
	}
}

func TestScrubRefreshesStaleMirror(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(30_000, 87)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Replicas: 1, NoParity: true}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one mirror copy.
	d.mu.Lock()
	entry := d.chunks[0]
	d.mu.Unlock()
	mp, _ := d.fleet.At(entry.Mirrors[0].CPIndex)
	if err := mp.Put(entry.Mirrors[0].VirtualID, make([]byte, entry.PayloadLen)); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("scrub = %+v, want 1 repair", rep)
	}
	// The mirror must now serve correct data when the primary dies.
	pp, _ := d.fleet.At(entry.CPIndex)
	pp.SetOutage(true)
	got, err := d.GetChunk("alice", "root", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := privacy.DefaultChunkSizes().Size(privacy.Moderate)
	if !bytes.Equal(got, data[:size]) {
		t.Fatal("repaired mirror serves wrong data")
	}
}

func TestScrubReportsUnrepairable(t *testing.T) {
	// No parity, no mirrors, primary payload corrupted: nothing to repair
	// from.
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "f", payload(5_000, 88), privacy.Low, UploadOptions{NoParity: true}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	entry := d.chunks[0]
	d.mu.Unlock()
	p, _ := d.fleet.At(entry.CPIndex)
	corrupt := make([]byte, entry.PayloadLen)
	if err := p.Put(entry.VirtualID, corrupt); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrepairable != 1 {
		t.Fatalf("scrub = %+v, want 1 unrepairable", rep)
	}
}
