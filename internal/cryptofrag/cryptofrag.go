// Package cryptofrag implements the encryption-based alternative the
// paper compares against in §VII-E ("Encryption vs Fragmentation"): the
// client encrypts data before storing it in the cloud, and every query
// must fetch and decrypt before it can be answered. The package provides
// AES-CTR whole-file encryption and a query-cost harness the benchmarks
// use to reproduce the paper's overhead argument.
package cryptofrag

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
)

// ErrKeySize is returned for invalid key lengths.
var ErrKeySize = errors.New("cryptofrag: key must be 16, 24 or 32 bytes")

// ErrCiphertext is returned for malformed or tampered ciphertexts.
var ErrCiphertext = errors.New("cryptofrag: invalid ciphertext")

// ivSize is the AES block size used as the CTR IV.
const ivSize = aes.BlockSize

// macSize is the length of the appended integrity tag.
const macSize = sha256.Size

// Encrypt seals plaintext with AES-CTR and appends an HMAC-SHA256 tag
// (encrypt-then-MAC). The IV is derived deterministically from the key and
// a caller-supplied nonce counter, so tests are reproducible; production
// use would draw it from crypto/rand.
func Encrypt(key, plaintext []byte, nonce uint64) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrKeySize, err)
	}
	iv := deriveIV(key, nonce)
	out := make([]byte, ivSize+len(plaintext)+macSize)
	copy(out, iv)
	cipher.NewCTR(block, iv).XORKeyStream(out[ivSize:ivSize+len(plaintext)], plaintext)
	mac := hmac.New(sha256.New, key)
	mac.Write(out[:ivSize+len(plaintext)])
	copy(out[ivSize+len(plaintext):], mac.Sum(nil))
	return out, nil
}

// Decrypt opens a ciphertext produced by Encrypt, verifying integrity.
func Decrypt(key, ciphertext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrKeySize, err)
	}
	if len(ciphertext) < ivSize+macSize {
		return nil, fmt.Errorf("%w: too short", ErrCiphertext)
	}
	body := ciphertext[:len(ciphertext)-macSize]
	tag := ciphertext[len(ciphertext)-macSize:]
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, fmt.Errorf("%w: MAC mismatch", ErrCiphertext)
	}
	iv := body[:ivSize]
	plaintext := make([]byte, len(body)-ivSize)
	cipher.NewCTR(block, iv).XORKeyStream(plaintext, body[ivSize:])
	return plaintext, nil
}

func deriveIV(key []byte, nonce uint64) []byte {
	h := hmac.New(sha256.New, key)
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(nonce >> (8 * (7 - i)))
	}
	h.Write(buf[:])
	return h.Sum(nil)[:ivSize]
}

// QueryCost quantifies the paper's overhead argument. For the encrypted
// baseline, answering any query requires transferring and decrypting the
// whole object ("The client has to fetch the whole database, then decrypt
// it and run queries"); for fragmentation, only the chunks overlapping
// the queried byte range move.
type QueryCost struct {
	BytesTransferred int
	BytesDecrypted   int
	ChunksTouched    int
}

// EncryptedQueryCost models a range query of length qLen over an
// encrypted object of size objSize.
func EncryptedQueryCost(objSize, qLen int) QueryCost {
	_ = qLen // the whole object moves regardless of the query
	return QueryCost{
		BytesTransferred: objSize + ivSize + macSize,
		BytesDecrypted:   objSize,
		ChunksTouched:    1,
	}
}

// FragmentedQueryCost models the same range query over a fragmented
// object with the given chunk size: only overlapping chunks transfer and
// nothing is decrypted.
func FragmentedQueryCost(objSize, chunkSize, qStart, qLen int) (QueryCost, error) {
	if chunkSize <= 0 {
		return QueryCost{}, fmt.Errorf("cryptofrag: chunk size %d", chunkSize)
	}
	if qStart < 0 || qLen < 0 || qStart+qLen > objSize {
		return QueryCost{}, fmt.Errorf("cryptofrag: query [%d,%d) outside object of %d", qStart, qStart+qLen, objSize)
	}
	if qLen == 0 {
		return QueryCost{}, nil
	}
	first := qStart / chunkSize
	last := (qStart + qLen - 1) / chunkSize
	chunks := last - first + 1
	bytes := chunks * chunkSize
	lastChunkStart := last * chunkSize
	if lastChunkStart+chunkSize > objSize {
		bytes -= lastChunkStart + chunkSize - objSize
	}
	return QueryCost{BytesTransferred: bytes, ChunksTouched: chunks}, nil
}

// Zero reports whether a cost is empty.
func (q QueryCost) Zero() bool { return q == QueryCost{} }
