package main

import (
	"encoding/binary"
	"fmt"
)

// Object contents are a counter-based pseudo-random stream: the 8-byte
// word at index j of the stream named by seed is mix(seed, j). Any byte
// range of any object can therefore be regenerated on its own, which is
// what lets a range read be compared byte for byte against what the key
// was last written with without the benchmark keeping a copy of every
// object it stored.

func mix(seed, j uint64) uint64 {
	z := seed + (j+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fill writes bytes [off, off+len(p)) of the stream named by seed into p.
func fill(p []byte, seed uint64, off int) {
	if r := off & 7; r != 0 && len(p) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(seed, uint64(off>>3)))
		n := copy(p, w[r:])
		p, off = p[n:], off+n
	}
	j := uint64(off >> 3)
	for ; len(p) >= 8; p, j = p[8:], j+1 {
		binary.LittleEndian.PutUint64(p, mix(seed, j))
	}
	if len(p) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(seed, j))
		copy(p, w[:])
	}
}

// object is the benchmark's record of one stored file: enough to
// regenerate every byte it holds and to check a whole-file read by
// digest.
type object struct {
	key  int
	size int
	seed uint64
	// patch, when non-zero, names the stream that replaced the first
	// patchLen bytes (chunk 0) in the latest update.
	patch    uint64
	patchLen int
	// sum is the SHA-256 of the current contents, set when the object is
	// written.
	sum [32]byte
}

func (o *object) name() string { return fmt.Sprintf("obj-%07d", o.key) }

// read writes the object's expected bytes [off, off+len(p)) into p.
func (o *object) read(p []byte, off int) {
	fill(p, o.seed, off)
	if o.patch != 0 && off < o.patchLen {
		fill(p[:min(len(p), o.patchLen-off)], o.patch, off)
	}
}

// keyspace is one tenant's namespace as the benchmark believes it to be.
// Exactly one worker drives a keyspace, so the operation sequence against
// it is a pure function of the seed and never of scheduling.
type keyspace struct {
	tenant   string
	password string
	live     []*object
	next     int // key of the next object a generator mints
}

// apply records the effect of a completed operation.
func (ks *keyspace) apply(o op) {
	switch o.kind {
	case opPut:
		ks.live = append(ks.live, o.obj)
	case opRemove:
		last := len(ks.live) - 1
		ks.live[o.idx] = ks.live[last]
		ks.live = ks.live[:last]
	case opUpdate:
		o.obj.patch, o.obj.patchLen = o.patch, o.n
	}
}

func (ks *keyspace) liveBytes() int64 {
	var n int64
	for _, o := range ks.live {
		n += int64(o.size)
	}
	return n
}
