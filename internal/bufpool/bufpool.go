// Package bufpool provides size-classed byte-buffer pooling for the
// data plane. The distributor's hot paths (chunk padding, parity
// buffers, reconstruction scratch) allocate short-lived buffers whose
// sizes repeat heavily — one pool per power-of-two size class lets
// those buffers recycle across requests instead of churning the GC.
//
// Ownership rules (see DESIGN.md §8):
//
//   - Get returns a buffer of exactly the requested length; its tail
//     (up to capacity) and its contents are NOT zeroed. Callers that
//     need zeroed padding must clear it themselves.
//   - Put hands the buffer back; the caller must not retain any alias.
//     Buffers whose bytes escape to a client or are stored in a live
//     table must never be Put.
//   - Put is always safe to skip — an un-Put buffer is ordinary garbage.
//   - Put accepts any buffer (pooled or not); wrong-sized ones are
//     dropped, so callers need not track provenance.
package bufpool

import (
	"math/bits"
	"sync"
	"unsafe"
)

const (
	// minBits..maxBits bound the pooled size classes: 512 B .. 1 MiB.
	// Smaller buffers are cheaper to allocate than to pool; larger ones
	// are rare (chunk sizes top out at 64 KiB) and would pin memory.
	minBits = 9
	maxBits = 20
)

// classes holds one pool per size class. A pool stores the pointer to a
// buffer's first byte (unsafe.SliceData), which keeps the whole backing
// array alive and, being a pointer, goes into the pool's interface
// without an allocation; Get rebuilds the slice at the class size, which
// Put made sure the array holds.
var classes [maxBits - minBits + 1]sync.Pool

// class returns the pool index whose buffers have capacity 2^(minBits+i),
// and that capacity, for the smallest class holding n bytes. ok is false
// when n is outside the pooled range.
func class(n int) (idx, size int, ok bool) {
	if n <= 0 || n > 1<<maxBits {
		return 0, 0, false
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n), 0 for n==1
	if b < minBits {
		b = minBits
	}
	return b - minBits, 1 << b, true
}

// Get returns a buffer with len(b) == n from the matching size class,
// falling back to a plain allocation for out-of-range sizes. Contents
// are undefined.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	idx, size, ok := class(n)
	if !ok {
		return make([]byte, n)
	}
	if v := classes[idx].Get(); v != nil {
		return unsafe.Slice(v.(*byte), size)[:n]
	}
	return make([]byte, n, size)
}

// Put recycles b into the size class its capacity fills. Buffers too
// small or too large for any class are dropped. The caller must not use
// b (or any alias of it) afterwards.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minBits || c > 1<<maxBits {
		return
	}
	// Floor class: the largest class size ≤ cap, so every buffer stored
	// in a class can serve that class's full size.
	idx := bits.Len(uint(c)) - 1 - minBits
	if idx < 0 {
		return
	}
	if idx >= len(classes) {
		idx = len(classes) - 1
	}
	classes[idx].Put(unsafe.SliceData(b))
}
