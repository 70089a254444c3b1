package mislead

import "math/rand"

// The lags of math/rand's additive lagged-Fibonacci source: output n is
// output n−607 plus output n−273, modulo 2^64.
const (
	streamLen = 607
	streamTap = 273
)

// Stream is the exact output sequence of rand.NewSource(seed), read
// without an interface call per draw: a rand.Rand over that source calls
// Source.Int63 through its interface for every number, and InjectTo
// draws twice per decoy byte.
//
// The source's state is its last 607 outputs, so Stream keeps exactly
// those, in order, and refills the whole block at once by the recurrence
// when the cursor reaches its end. Seeding draws the first 607 outputs
// from rand.NewSource itself, so every later output equals the one
// rand.New(rand.NewSource(seed)).Uint64() returns. Stream implements
// rand.Source64, so rand.New(s) draws the same numbers that rand.New
// over the math/rand source would (InjectLines takes one).
//
// A Stream is not safe for concurrent use. The zero value is a stream
// that produces zeros; use NewStream.
type Stream struct {
	buf  [streamLen]uint64 // the outputs of the current block, in order
	next int               // index in buf of the next output; streamLen when spent
}

// NewStream returns the stream of rand.NewSource(seed).
func NewStream(seed int64) *Stream {
	s := new(Stream)
	s.Seed(seed)
	return s
}

// Seed restarts s at the first output of rand.NewSource(seed).
func (s *Stream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.buf {
		s.buf[i] = src.Uint64()
	}
	s.next = 0
}

// Uint64 returns the next output.
func (s *Stream) Uint64() uint64 {
	if s.next >= streamLen {
		s.refill()
		s.next = 0
	}
	v := s.buf[s.next]
	s.next++
	return v
}

// Int63 returns the next output with its top bit cleared, as the math/rand
// source does.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// refill replaces the spent block by the next 607 outputs, in place: the
// first 273 new outputs read the old block's tail (not yet overwritten),
// the rest read new outputs 273 places back.
//
//go:noinline
func (s *Stream) refill() {
	b := &s.buf
	for i := 0; i < streamTap; i++ {
		b[i] += b[i+streamLen-streamTap]
	}
	for i := streamTap; i < streamLen; i++ {
		b[i] += b[i-streamTap]
	}
}
