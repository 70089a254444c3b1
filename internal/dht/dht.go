// Package dht is the consistent-hash ring the sharded data plane routes
// on: BalancedRing over FileKey maps every ⟨client, filename⟩ pair to the
// one distributor that owns it. The paper's §IV-C Chord ring, the
// client-side variant, is package clientside.
package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
)

// ErrEmptyRing is returned by lookups on a ring with no nodes.
var ErrEmptyRing = errors.New("dht: ring has no nodes")

// HashID maps an arbitrary name into the 64-bit identifier circle.
func HashID(name string) uint64 {
	sum := sha256.Sum256([]byte(name))
	return binary.BigEndian.Uint64(sum[:8])
}

// FileKey derives the ring key of a ⟨client, filename⟩ pair — the unit
// the sharded data plane routes on. Every operation on one file of one
// client lands on a single owning distributor, so per-file generation
// counters and placement state never straddle shards. The NUL separator
// keeps distinct pairs from colliding by concatenation ("ab"+"c" vs
// "a"+"bc").
func FileKey(client, filename string) uint64 {
	return HashID(client + "\x00" + filename)
}
