package cryptofrag

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

var testKey = bytes.Repeat([]byte{0x42}, 32)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	pt := []byte("the sensitive tender bidding history of Hercules Inc.")
	ct, err := Encrypt(testKey, pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, pt[:16]) {
		t.Fatal("ciphertext contains plaintext")
	}
	got, err := Decrypt(testKey, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("round trip mismatch")
	}
}

func TestEncryptKeySizes(t *testing.T) {
	for _, n := range []int{16, 24, 32} {
		if _, err := Encrypt(make([]byte, n), []byte("x"), 0); err != nil {
			t.Fatalf("key size %d rejected: %v", n, err)
		}
	}
	if _, err := Encrypt(make([]byte, 15), []byte("x"), 0); !errors.Is(err, ErrKeySize) {
		t.Fatalf("bad key: %v", err)
	}
	if _, err := Decrypt(make([]byte, 5), []byte("x")); !errors.Is(err, ErrKeySize) {
		t.Fatalf("bad key decrypt: %v", err)
	}
}

func TestDecryptRejectsTampering(t *testing.T) {
	ct, _ := Encrypt(testKey, []byte("integrity matters"), 2)
	ct[len(ct)/2] ^= 0x01
	if _, err := Decrypt(testKey, ct); !errors.Is(err, ErrCiphertext) {
		t.Fatalf("tampered ciphertext: %v", err)
	}
	if _, err := Decrypt(testKey, []byte("short")); !errors.Is(err, ErrCiphertext) {
		t.Fatalf("short ciphertext: %v", err)
	}
}

func TestDecryptRejectsWrongKey(t *testing.T) {
	ct, _ := Encrypt(testKey, []byte("secret"), 3)
	other := bytes.Repeat([]byte{0x24}, 32)
	if _, err := Decrypt(other, ct); !errors.Is(err, ErrCiphertext) {
		t.Fatalf("wrong key: %v", err)
	}
}

func TestNoncesProduceDistinctCiphertexts(t *testing.T) {
	pt := []byte("same plaintext")
	c1, _ := Encrypt(testKey, pt, 1)
	c2, _ := Encrypt(testKey, pt, 2)
	if bytes.Equal(c1, c2) {
		t.Fatal("distinct nonces gave identical ciphertexts")
	}
}

func TestEncryptedQueryCostIsWholeObject(t *testing.T) {
	c := EncryptedQueryCost(1_000_000, 10)
	if c.BytesTransferred < 1_000_000 || c.BytesDecrypted != 1_000_000 {
		t.Fatalf("cost = %+v", c)
	}
	// The query size is irrelevant — the paper's point.
	c2 := EncryptedQueryCost(1_000_000, 900_000)
	if c.BytesTransferred != c2.BytesTransferred {
		t.Fatal("encrypted cost varied with query size")
	}
}

func TestFragmentedQueryCost(t *testing.T) {
	// Object 1000, chunks 100, query [250, 40) → chunk 2 only.
	c, err := FragmentedQueryCost(1000, 100, 250, 40)
	if err != nil {
		t.Fatal(err)
	}
	if c.ChunksTouched != 1 || c.BytesTransferred != 100 || c.BytesDecrypted != 0 {
		t.Fatalf("cost = %+v", c)
	}
	// Query crossing a boundary touches two chunks.
	c, _ = FragmentedQueryCost(1000, 100, 290, 40)
	if c.ChunksTouched != 2 || c.BytesTransferred != 200 {
		t.Fatalf("cost = %+v", c)
	}
	// Short final chunk.
	c, _ = FragmentedQueryCost(950, 100, 940, 10)
	if c.ChunksTouched != 1 || c.BytesTransferred != 50 {
		t.Fatalf("tail cost = %+v", c)
	}
	// Zero-length query is free.
	c, _ = FragmentedQueryCost(1000, 100, 10, 0)
	if !c.Zero() {
		t.Fatalf("zero query cost = %+v", c)
	}
}

func TestFragmentedQueryCostValidation(t *testing.T) {
	if _, err := FragmentedQueryCost(100, 0, 0, 10); err == nil {
		t.Fatal("zero chunk size accepted")
	}
	if _, err := FragmentedQueryCost(100, 10, 95, 10); err == nil {
		t.Fatal("overflowing query accepted")
	}
	if _, err := FragmentedQueryCost(100, 10, -1, 5); err == nil {
		t.Fatal("negative start accepted")
	}
}

func TestFragmentationBeatsEncryptionForPointQueries(t *testing.T) {
	// The paper's §VII-E claim, as an inequality.
	objSize := 10 << 20
	enc := EncryptedQueryCost(objSize, 4096)
	frag, err := FragmentedQueryCost(objSize, 64<<10, 5<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if frag.BytesTransferred >= enc.BytesTransferred {
		t.Fatalf("fragmentation (%d B) not cheaper than encryption (%d B)", frag.BytesTransferred, enc.BytesTransferred)
	}
	if frag.BytesDecrypted != 0 {
		t.Fatal("fragmentation should decrypt nothing")
	}
}

// Property: Encrypt→Decrypt is the identity for random payloads/nonces.
func TestEncryptDecryptProperty(t *testing.T) {
	f := func(data []byte, nonce uint64) bool {
		ct, err := Encrypt(testKey, data, nonce)
		if err != nil {
			return false
		}
		pt, err := Decrypt(testKey, ct)
		if err != nil {
			return false
		}
		if data == nil {
			return len(pt) == 0
		}
		return bytes.Equal(pt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: fragmented query cost never exceeds object size + one chunk,
// and covers at least the queried bytes.
func TestFragmentedQueryCostBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		objSize := 1 + rng.Intn(100_000)
		chunk := 1 + rng.Intn(4096)
		qStart := rng.Intn(objSize)
		qLen := rng.Intn(objSize - qStart)
		c, err := FragmentedQueryCost(objSize, chunk, qStart, qLen)
		if err != nil {
			return false
		}
		if qLen == 0 {
			return c.Zero()
		}
		return c.BytesTransferred >= qLen && c.BytesTransferred <= objSize+chunk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
