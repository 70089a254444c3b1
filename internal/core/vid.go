package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// VIDAllocator produces virtual chunk ids. "Inside the Cloud Data
// Distributor each chunk is given a unique virtual id and this id is used
// to identify the chunk within the Cloud Data Distributor and Cloud
// Providers. This virtualization conceals the identity of a client from
// the provider."
type VIDAllocator interface {
	// Next returns a fresh id, never repeating within one distributor.
	Next() string
}

// prfAllocator derives ids as HMAC-SHA256(secret, counter): unlinkable to
// clients and files without the distributor's secret, yet deterministic
// for a given secret so tests are reproducible. The MAC is keyed once and
// Reset per id, so an id costs one HMAC and allocates its hex string
// alone: placement mints ids under the distributor's table lock, where
// re-keying SHA-256 on every call was most of a defended stripe's
// placement time. Like any VIDAllocator it is not safe for concurrent
// use; every caller holds d.mu.
type prfAllocator struct {
	mac hash.Hash
	ctr uint64
	// in and sum are the MAC's input and output. They live here, not on
	// the stack, because a slice passed through the hash.Hash interface
	// escapes: as locals they would cost two allocations per id.
	in  [8]byte
	sum [sha256.Size]byte
}

// NewPRFAllocator builds the default allocator from a secret key.
func NewPRFAllocator(secret []byte) VIDAllocator {
	return &prfAllocator{mac: hmac.New(sha256.New, secret)}
}

func (a *prfAllocator) Next() string {
	var id [16]byte
	binary.BigEndian.PutUint64(a.in[:], a.ctr)
	a.ctr++
	a.mac.Reset()
	a.mac.Write(a.in[:])
	hex.Encode(id[:], a.mac.Sum(a.sum[:0])[:8])
	return string(id[:])
}

// ScriptedAllocator hands out a fixed sequence of ids, then falls back to
// a PRF allocator. It exists so the Figure 3 walkthrough can reproduce the
// exact virtual ids printed in the paper (10986, 13239, ...).
type ScriptedAllocator struct {
	Sequence []string
	pos      int
	fallback VIDAllocator
}

// NewScriptedAllocator returns an allocator that first yields seq in
// order.
func NewScriptedAllocator(seq []string) *ScriptedAllocator {
	return &ScriptedAllocator{Sequence: seq, fallback: NewPRFAllocator([]byte("scripted-fallback"))}
}

// Next implements VIDAllocator.
func (s *ScriptedAllocator) Next() string {
	if s.pos < len(s.Sequence) {
		id := s.Sequence[s.pos]
		s.pos++
		return id
	}
	return s.fallback.Next()
}
