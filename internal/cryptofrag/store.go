package cryptofrag

import (
	"fmt"
	"sync"

	"repro/internal/provider"
)

// BaselineStore is the §VII-E encryption-based alternative made runnable:
// the client encrypts each file whole and stores the ciphertext on a
// single provider. Every query — even for a handful of bytes — must
// "fetch the whole database, then decrypt it and run queries", which is
// exactly the overhead the paper holds against encryption.
type BaselineStore struct {
	mu       sync.Mutex
	provider provider.Provider
	key      []byte
	nonce    uint64
	files    map[string]string // filename -> provider object key
}

// NewBaselineStore wraps one provider with client-side encryption.
func NewBaselineStore(p provider.Provider, key []byte) (*BaselineStore, error) {
	if p == nil {
		return nil, fmt.Errorf("cryptofrag: nil provider")
	}
	switch len(key) {
	case 16, 24, 32:
	default:
		return nil, ErrKeySize
	}
	cp := make([]byte, len(key))
	copy(cp, key)
	return &BaselineStore{provider: p, key: cp, files: make(map[string]string)}, nil
}

// Put encrypts and uploads a whole file.
func (s *BaselineStore) Put(filename string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.files[filename]; dup {
		return fmt.Errorf("cryptofrag: file %q already stored", filename)
	}
	s.nonce++
	ct, err := Encrypt(s.key, data, s.nonce)
	if err != nil {
		return err
	}
	objKey := fmt.Sprintf("enc-%016x", s.nonce)
	if err := s.provider.Put(objKey, ct); err != nil {
		return err
	}
	s.files[filename] = objKey
	return nil
}

// GetRange answers a byte-range query the only way an encrypted whole-
// object store can: transfer everything, decrypt everything, slice.
func (s *BaselineStore) GetRange(filename string, offset, length int) ([]byte, error) {
	if offset < 0 || length < 0 {
		return nil, fmt.Errorf("cryptofrag: range [%d, %d)", offset, offset+length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	objKey, ok := s.files[filename]
	if !ok {
		return nil, fmt.Errorf("cryptofrag: unknown file %q", filename)
	}
	ct, err := s.provider.Get(objKey)
	if err != nil {
		return nil, err
	}
	pt, err := Decrypt(s.key, ct)
	if err != nil {
		return nil, err
	}
	if offset+length > len(pt) {
		return nil, fmt.Errorf("cryptofrag: range [%d, %d) beyond file of %d bytes", offset, offset+length, len(pt))
	}
	out := make([]byte, length)
	copy(out, pt[offset:offset+length])
	return out, nil
}

// BytesOut reports cumulative bytes transferred from the provider —
// the measured query cost the §VII-E comparison reads.
func (s *BaselineStore) BytesOut() int64 {
	return s.provider.Usage().BytesOut
}
