package bufpool

import (
	"sync"
	"testing"
)

func TestGetLengthAndCapacity(t *testing.T) {
	for _, n := range []int{1, 7, 511, 512, 513, 4096, 64 << 10, 1 << 20, 1<<20 + 1, 0, -3} {
		b := Get(n)
		want := n
		if n < 0 {
			want = 0
		}
		if len(b) != want {
			t.Fatalf("Get(%d): len=%d", n, len(b))
		}
		Put(b)
	}
}

func TestRecycleKeepsClassCapacity(t *testing.T) {
	// A recycled buffer must always be able to serve the full class size
	// it is stored under, regardless of the length it was Put at.
	b := Get(1000) // 1024-class
	Put(b[:13])    // cap still 1024
	c := Get(1024)
	if cap(c) < 1024 {
		t.Fatalf("recycled buffer cap=%d, class needs 1024", cap(c))
	}
}

func TestPutForeignBuffers(t *testing.T) {
	Put(nil)
	Put(make([]byte, 3))     // below min class: dropped
	Put(make([]byte, 2<<20)) // above max class: dropped
	Put(make([]byte, 700))   // non-power-of-two cap: floor class 512
	b := Get(512)
	if len(b) != 512 {
		t.Fatalf("len=%d after foreign Put", len(b))
	}
}

func TestConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 512 + int(seed)*137 + i
				b := Get(n)
				for j := range b {
					b[j] = seed
				}
				for j := range b {
					if b[j] != seed {
						t.Errorf("buffer raced")
						return
					}
				}
				Put(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Get(16 << 10)
		buf[0] = 1
		Put(buf)
	}
}

// TestPutDoesNotAllocate: handing a buffer back costs no allocation.
// Each run returns a buffer and takes it out again, so the pool never
// grows; AllocsPerRun counts whole allocations per run, which a Put that
// boxed its slice would make one.
func TestPutDoesNotAllocate(t *testing.T) {
	buf := Get(16 << 10)
	if allocs := testing.AllocsPerRun(1000, func() {
		Put(buf)
		buf = Get(16 << 10)
	}); allocs != 0 {
		t.Fatalf("Put then Get allocates %v times per run, want 0", allocs)
	}
}
