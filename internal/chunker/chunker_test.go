package chunker

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/privacy"
)

func TestSplitSizes(t *testing.T) {
	data := make([]byte, 100)
	chunks, err := SplitSize(data, 30, privacy.Low)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	for i, c := range chunks {
		if c.Serial != i {
			t.Fatalf("serial[%d] = %d", i, c.Serial)
		}
		if c.Level != privacy.Low {
			t.Fatalf("level = %v", c.Level)
		}
	}
	if len(chunks[3].Data) != 10 {
		t.Fatalf("last chunk = %d bytes, want 10", len(chunks[3].Data))
	}
}

func TestSplitSizeValidation(t *testing.T) {
	if _, err := SplitSize([]byte("x"), 0, privacy.Public); err == nil {
		t.Fatal("size 0 should error")
	}
	if _, err := SplitSize([]byte("x"), -1, privacy.Public); err == nil {
		t.Fatal("negative size should error")
	}
}

func TestSplitEmptyFile(t *testing.T) {
	chunks, err := SplitSize(nil, 10, privacy.High)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || len(chunks[0].Data) != 0 {
		t.Fatalf("empty file → %d chunks, first %d bytes", len(chunks), len(chunks[0].Data))
	}
	got, err := Reassemble(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("reassembled %d bytes", len(got))
	}
}

func TestSplitUsesPolicyLevels(t *testing.T) {
	policy := privacy.DefaultChunkSizes()
	data := make([]byte, 100<<10) // 100 KiB
	pub, err := Split(data, privacy.Public, policy)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Split(data, privacy.High, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(high) <= len(pub) {
		t.Fatalf("PL3 produced %d chunks, PL0 %d — sensitive data must split smaller", len(high), len(pub))
	}
}

func TestSplitCopiesData(t *testing.T) {
	data := []byte("hello world")
	chunks, _ := SplitSize(data, 5, privacy.Public)
	data[0] = 'X'
	if chunks[0].Data[0] != 'h' {
		t.Fatal("chunk aliases caller's buffer")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	chunks, _ := SplitSize([]byte("sensitive payload"), 8, privacy.High)
	if err := chunks[0].Verify(); err != nil {
		t.Fatal(err)
	}
	chunks[0].Data[0] ^= 0xFF
	if err := chunks[0].Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	chunks, _ := SplitSize(data, 7, privacy.Low)
	// Shuffle deterministically.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	got, err := Reassemble(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestReassembleMissingChunk(t *testing.T) {
	chunks, _ := SplitSize(make([]byte, 50), 10, privacy.Public)
	broken := append(chunks[:2:2], chunks[3:]...) // drop serial 2
	if _, err := Reassemble(broken); !errors.Is(err, ErrMissing) {
		t.Fatalf("err = %v, want ErrMissing", err)
	}
}

func TestReassembleEmptyInput(t *testing.T) {
	if _, err := Reassemble(nil); !errors.Is(err, ErrMissing) {
		t.Fatalf("err = %v, want ErrMissing", err)
	}
}

func TestReassembleCorruptChunk(t *testing.T) {
	chunks, _ := SplitSize([]byte("abcdefghij"), 3, privacy.Public)
	chunks[1].Data[0] ^= 1
	if _, err := Reassemble(chunks); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestReassembleAgreeingDuplicates(t *testing.T) {
	data := []byte("duplicate tolerant reassembly")
	chunks, _ := SplitSize(data, 6, privacy.Low)
	dup := append(chunks, chunks[0]) // replica of serial 0 (RAID mirrors do this)
	got, err := Reassemble(dup)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestReassembleConflictingDuplicates(t *testing.T) {
	chunks, _ := SplitSize([]byte("abcdef"), 3, privacy.Low)
	evil := chunks[0]
	evil.Data = []byte("zzz")
	evil.Sum = sum256(evil.Data)
	if _, err := Reassemble(append(chunks, evil)); err == nil {
		t.Fatal("conflicting duplicates must error")
	}
}

func sum256(b []byte) [32]byte {
	c, _ := SplitSize(b, len(b)+1, privacy.Public)
	return c[0].Sum
}

// Property: Split → Reassemble is the identity for arbitrary payloads and
// chunk sizes.
func TestSplitReassembleRoundTripProperty(t *testing.T) {
	f := func(data []byte, sizeSeed uint8) bool {
		size := int(sizeSeed)%64 + 1
		chunks, err := SplitSize(data, size, privacy.Moderate)
		if err != nil {
			return false
		}
		got, err := Reassemble(chunks)
		if err != nil {
			return false
		}
		if data == nil {
			return len(got) == 0
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes across chunks equals the file size, and all but the
// last chunk are exactly the configured size.
func TestSplitSizesInvariantProperty(t *testing.T) {
	f := func(n uint16, sizeSeed uint8) bool {
		size := int(sizeSeed)%128 + 1
		data := make([]byte, int(n)%5000)
		chunks, err := SplitSize(data, size, privacy.Low)
		if err != nil {
			return false
		}
		total := 0
		for i, c := range chunks {
			total += len(c.Data)
			if i < len(chunks)-1 && len(c.Data) != size {
				return false
			}
		}
		return total == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
