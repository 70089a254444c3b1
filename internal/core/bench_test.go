package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
	"repro/internal/wal"
)

// benchDistributor builds a distributor over n in-memory providers with a
// fixed artificial latency on every Put — the regime the unlocked ship
// phase is built for, where provider round-trips dominate an upload's
// wall-clock time.
func benchDistributor(b *testing.B, n int, putLatency time.Duration) *Distributor {
	b.Helper()
	f, err := provider.NewFleet()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("B%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			b.Fatal(err)
		}
		mem.SetBeforePut(func(int, string) error {
			time.Sleep(putLatency)
			return nil
		})
		if err := f.Add(mem); err != nil {
			b.Fatal(err)
		}
	}
	d, err := New(Config{Fleet: f, Parallelism: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		b.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		b.Fatal(err)
	}
	return d
}

// benchReadDistributor builds a zero-latency distributor holding one
// uploaded file, for read-path benchmarks.
func benchReadDistributor(b testing.TB, fileBytes int, mislead float64, cacheBytes int64) (*Distributor, []byte) {
	b.Helper()
	f, err := provider.NewFleet()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("R%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Add(mem); err != nil {
			b.Fatal(err)
		}
	}
	d, err := New(Config{Fleet: f, Parallelism: 4, CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		b.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		b.Fatal(err)
	}
	data := payload(fileBytes, 7)
	if _, err := d.Upload("alice", "root", "bench.bin", data, privacy.Moderate, UploadOptions{MisleadFraction: mislead}); err != nil {
		b.Fatal(err)
	}
	return d, data
}

// BenchmarkGetFile measures the hot whole-file read path: fetch plans,
// provider gets, mislead stripping and final assembly. allocs/op is the
// acceptance metric for the pooled/into-buffer assembly path.
func BenchmarkGetFile(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		mislead float64
	}{{"plain", 0}, {"mislead", 0.1}} {
		b.Run(cfg.name+"/256KiB", func(b *testing.B) {
			d, want := benchReadDistributor(b, 256<<10, cfg.mislead, 0)
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := d.GetFile("alice", "root", "bench.bin")
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != len(want) {
					b.Fatalf("got %d bytes, want %d", len(got), len(want))
				}
			}
		})
	}
}

// TestGetFileAllocationBudget pins BenchmarkGetFile's allocs/op. The
// per-chunk fan-out it replaced cost 144 (plain) and 160 (mislead) for
// this 16-chunk file — a ladder of closures, a flight and a stripped copy
// per chunk; the primary-fetch step allocates per provider call instead
// and strips into the file buffer, leaving the per-chunk allocations to
// the plans (one sibling list each) and the in-memory providers' copies.
func TestGetFileAllocationBudget(t *testing.T) {
	for _, mislead := range []float64{0, 0.1} {
		d, want := benchReadDistributor(t, 256<<10, mislead, 0)
		allocs := testing.AllocsPerRun(20, func() {
			if got, err := d.GetFile("alice", "root", "bench.bin"); err != nil || len(got) != len(want) {
				t.Fatalf("GetFile = %d bytes, %v", len(got), err)
			}
		})
		if allocs > 100 {
			t.Errorf("GetFile of 16 chunks (mislead %v) allocates %.0f times, budget 100", mislead, allocs)
		}
	}
}

// BenchmarkGetChunk measures single-chunk reads, cold (no cache) and hot
// (served from the generation-aware chunk cache without provider I/O).
func BenchmarkGetChunk(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		cacheBytes int64
	}{{"cold", 0}, {"cached", 32 << 20}} {
		b.Run(cfg.name, func(b *testing.B) {
			d, _ := benchReadDistributor(b, 256<<10, 0, cfg.cacheBytes)
			b.SetBytes(16 << 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.GetChunk("alice", "root", "bench.bin", 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchTailDistributor builds a distributor over 8 providers that all
// carry a 20ms LatencyModel, but whose injected Sleep only really blocks
// on the one provider `slow` points at — armed after upload, aimed at
// chunk 0's primary. The slow provider stays healthy and answers
// correctly; it is just late, the regime hedged reads exist for. Every
// chunk carries one mirror replica so a hedge has somewhere to go.
func benchTailDistributor(b *testing.B, hedgeAfter time.Duration) (*Distributor, []byte) {
	b.Helper()
	const perOp = 20 * time.Millisecond
	slow := &atomic.Int64{}
	slow.Store(-1)
	f, err := provider.NewFleet()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		i := i
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("T%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{
			Latency: provider.LatencyModel{PerOp: perOp},
			Sleep: func(d time.Duration) {
				if int64(i) == slow.Load() {
					time.Sleep(d)
				}
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Add(mem); err != nil {
			b.Fatal(err)
		}
	}
	d, err := New(Config{Fleet: f, Parallelism: 4, HedgeAfter: hedgeAfter})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		b.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		b.Fatal(err)
	}
	data := payload(256<<10, 21)
	if _, err := d.Upload("alice", "root", "bench.bin", data, privacy.Moderate, UploadOptions{Replicas: 1}); err != nil {
		b.Fatal(err)
	}
	slow.Store(int64(d.chunks[d.clients["alice"].Files["bench.bin"].ChunkIdx[0]].CPIndex))
	return d, data
}

// BenchmarkGetFileTail measures whole-file reads with one slow (but
// healthy and correct) provider on the read path. unhedged waits out the
// full 20ms stall on every read; hedged races a mirror after at most
// -hedge-after (4ms here) and should land near that bound — the ratio is
// the tail-read acceptance metric (>= 2x).
func BenchmarkGetFileTail(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		hedgeAfter time.Duration
	}{{"unhedged", 0}, {"hedged", 4 * time.Millisecond}} {
		b.Run(cfg.name+"/256KiB", func(b *testing.B) {
			d, want := benchTailDistributor(b, cfg.hedgeAfter)
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := d.GetFile("alice", "root", "bench.bin")
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != len(want) {
					b.Fatalf("got %d bytes, want %d", len(got), len(want))
				}
			}
		})
	}
}

// benchWALDistributor builds a distributor over 8 zero-latency in-memory
// providers with the given WAL mode ("" = in-memory metadata), for
// measuring the durability layer's overhead in isolation.
func benchWALDistributor(b *testing.B, dir string, policy wal.SyncPolicy) *Distributor {
	b.Helper()
	f, err := provider.NewFleet()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("W%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Add(mem); err != nil {
			b.Fatal(err)
		}
	}
	d, err := New(Config{Fleet: f, Parallelism: 4, WALDir: dir, WALSync: policy})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		b.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkUploadWALOverhead measures what durable metadata costs an
// upload against the in-memory baseline. The acceptance criterion is
// grouped sync within 15% of mem; always pays a real fsync per commit
// and is reported for comparison.
func BenchmarkUploadWALOverhead(b *testing.B) {
	data := payload(8<<10, 77)
	for _, cfg := range []struct {
		name   string
		wal    bool
		policy wal.SyncPolicy
	}{
		{"mem", false, 0},
		{"off", true, wal.SyncOff},
		{"grouped", true, wal.SyncGrouped},
		{"always", true, wal.SyncAlways},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			dir := ""
			if cfg.wal {
				dir = b.TempDir()
			}
			d := benchWALDistributor(b, dir, cfg.policy)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("f-%d", i)
				if _, err := d.Upload("alice", "root", name, data, privacy.Moderate, UploadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUploadDefended measures the paper's highly-sensitive write —
// the shape of the end-to-end benchmark's defended-large workload: a
// buffered 4 MiB upload at PL3 (512 chunks of 8 KiB), 25 % misleading
// bytes, RAID-6, commit record on a grouped-sync WAL. Zero-latency
// in-memory providers leave decoy injection, parity and the record
// encoding as the cost. Each file is removed again outside the timer so
// the tables hold tombstones, not a growing population.
func BenchmarkUploadDefended(b *testing.B) {
	data := payload(4<<20, 78)
	d := benchWALDistributor(b, b.TempDir(), wal.SyncGrouped)
	opts := UploadOptions{MisleadFraction: 0.25, Assurance: raid.RAID6}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Upload("alice", "root", "f", data, privacy.High, opts); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := d.RemoveFile("alice", "root", "f"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkConcurrentUploads measures upload throughput as client
// concurrency grows. With provider I/O outside d.mu the ns/op figure
// should drop markedly from workers=1 to workers=4 and 8; under the old
// lock-across-I/O write path all three rungs were equal.
func BenchmarkConcurrentUploads(b *testing.B) {
	data := payload(8<<10, 99)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			d := benchDistributor(b, 8, 200*time.Microsecond)
			b.SetBytes(int64(len(data)))
			var seq atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := seq.Add(1)
						if i > int64(b.N) {
							return
						}
						name := fmt.Sprintf("f-%d", i)
						if _, err := d.Upload("alice", "root", name, data, privacy.Moderate, UploadOptions{}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
