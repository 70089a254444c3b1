package mislead

import (
	"math"
	"math/rand"
	"testing"
)

// Stream is only worth having if it is math/rand's source, output for
// output: the stored decoys of every file rest on that sequence. 5 000
// outputs cross eight refills. A toolchain whose math/rand source
// changed fails here, not in a golden further away.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64} {
		s, want := NewStream(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			if got, w := s.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d: output %d = %#x, math/rand gives %#x", seed, i, got, w)
			}
		}
		// Through rand.Rand, as InjectLines draws: Intn and Int63 read the
		// source's Int63, so they must agree too.
		got, want := rand.New(NewStream(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if g, w := got.Intn(1000+i), want.Intn(1000+i); g != w {
				t.Fatalf("seed %d: Intn draw %d = %d, math/rand gives %d", seed, i, g, w)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand gives %d", seed, i, g, w)
			}
		}
	}
	// Seed restarts the stream.
	s := NewStream(5)
	first := s.Uint64()
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	if s.Seed(5); s.Uint64() != first {
		t.Fatal("Seed did not restart the stream")
	}
}

// below is what rand.Rand gave the sampler before Stream: the rejection
// reduction of Uint32 up to 32 bits, rand.Intn past them. Bounds include
// ones that reject often (just over a power of two) and ones past 32 bits
// that no payload reaches in a test, so each path is compared directly.
func TestBelowMatchesRandDraws(t *testing.T) {
	reference := func(rng *rand.Rand, n int) int {
		if n > math.MaxUint32 {
			return rng.Intn(n)
		}
		bound := uint32(n)
		prod := uint64(rng.Uint32()) * uint64(bound)
		if low := uint32(prod); low < bound {
			for reject := -bound % bound; low < reject; low = uint32(prod) {
				prod = uint64(rng.Uint32()) * uint64(bound)
			}
		}
		return int(prod >> 32)
	}
	for _, n := range []int{1, 7, 1<<31 + 1, math.MaxUint32, 1 << 33, 1<<33 + 5, math.MaxInt64} {
		s, rng := NewStream(3), rand.New(rand.NewSource(3))
		next := s.next
		for i := 0; i < 3000; i++ {
			var got int
			got, next = s.below(next, n)
			if want := reference(rng, n); got != want {
				t.Fatalf("bound %d, draw %d: %d, want %d", n, i, got, want)
			}
		}
	}
}
