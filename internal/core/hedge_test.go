package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
)

// hedgeTestDistributor builds a distributor over 8 hooked in-memory
// providers with hedged reads enabled, returning the hooks so tests can
// stall or count individual providers' Gets.
func hedgeTestDistributor(t *testing.T, hedgeAfter time.Duration) (*Distributor, []*provider.MemProvider) {
	t.Helper()
	f, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	hooked := make([]*provider.MemProvider, 8)
	for i := range hooked {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("H%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hooked[i] = mem
		if err := f.Add(hooked[i]); err != nil {
			t.Fatal(err)
		}
	}
	d, err := New(Config{Fleet: f, Parallelism: 4, HedgeAfter: hedgeAfter})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	return d, hooked
}

func TestConfigRejectsNegativeHedgeAfter(t *testing.T) {
	f := testFleet(t, 3)
	if _, err := New(Config{Fleet: f, HedgeAfter: -time.Millisecond}); !errors.Is(err, ErrConfig) {
		t.Fatalf("New with HedgeAfter=-1ms: err=%v, want ErrConfig", err)
	}
}

// TestHedgeMirrorRescue is the acceptance test for hedged reads: a
// slow-but-healthy primary (its Get stalls but never fails) must not hold
// the read hostage — the hedge timer fires, the mirror rung races and
// wins, and the blocked primary's eventual genuine success reaches the
// health tracker without a single failure being recorded, so losing the
// race never feeds the circuit breaker.
func TestHedgeMirrorRescue(t *testing.T) {
	d, hooked := hedgeTestDistributor(t, 40*time.Millisecond)
	data := payload(20_000, 11)
	if _, err := d.Upload("alice", "root", "f.bin", data, privacy.Moderate, UploadOptions{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	primary := d.chunks[d.clients["alice"].Files["f.bin"].ChunkIdx[0]].CPIndex
	base := d.Health().Providers[primary]
	if base.Failures != 0 {
		t.Fatalf("failures before read = %d", base.Failures)
	}

	release := make(chan struct{})
	hooked[primary].SetBeforeGet(func(string) error {
		<-release
		return nil
	})

	got, err := d.GetChunk("alice", "root", "f.bin", 0)
	if err != nil {
		t.Fatalf("GetChunk with stalled primary: %v", err)
	}
	want := data[:d.chunks[d.clients["alice"].Files["f.bin"].ChunkIdx[0]].DataLen]
	if !bytes.Equal(got, want) {
		t.Fatal("hedged read returned wrong bytes")
	}
	m := d.Metrics()
	if m.HedgedReads != 1 || m.HedgeWins != 1 {
		t.Fatalf("hedged=%d wins=%d, want 1/1", m.HedgedReads, m.HedgeWins)
	}
	if m.MirrorHits != 1 || m.PrimaryHits != 0 {
		t.Fatalf("mirror=%d primary=%d, want 1/0", m.MirrorHits, m.PrimaryHits)
	}

	// Unblock the losing rung: its Get now genuinely succeeds, and that
	// success — not a failure — must land in the primary's health record.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := d.Health().Providers[primary]
		if h.Successes > base.Successes {
			if h.Failures != 0 {
				t.Fatalf("losing a hedge race recorded %d failures", h.Failures)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocked primary's success never reached the health tracker")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightCoalesce pins the dedup contract: N concurrent cache
// misses on the same chunk generation perform exactly one provider fetch,
// every waiter gets the bytes, and the coalesced-read counter accounts
// for the N-1 piggybackers.
func TestSingleFlightCoalesce(t *testing.T) {
	d, hooked := hedgeTestDistributor(t, 0) // sequential ladder; dedup only
	data := payload(20_000, 12)
	if _, err := d.Upload("alice", "root", "f.bin", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	release := make(chan struct{})
	var gets atomic.Int64
	for _, h := range hooked {
		h.SetBeforeGet(func(string) error {
			gets.Add(1)
			<-release
			return nil
		})
	}

	results := make([][]byte, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = d.GetChunk("alice", "root", "f.bin", 0)
		}(i)
	}

	// The leader is stalled inside the provider Get; everyone else must
	// join its flight. Coalesced joins are counted at join time, so the
	// metric reaching readers-1 proves all waiters are aboard before the
	// fetch is released.
	deadline := time.Now().Add(5 * time.Second)
	for d.Metrics().CoalescedReads != readers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", d.Metrics().CoalescedReads, readers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := gets.Load(); n != 1 {
		t.Fatalf("provider Gets = %d, want 1", n)
	}
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("reader %d got different bytes", i)
		}
	}
}

// TestConcurrentReadsDuringUpdate races whole-file and single-chunk reads
// against repeated chunk-0 updates, the workload the RWMutex planning
// path exists for (run under -race). Every successful read must be a
// consistent image: the untouched suffix byte-identical to the original,
// and chunk 0 equal to one of the committed generations. Reads that plan
// against a generation whose blobs are deleted mid-flight may fail, but
// only with ErrUnavailable.
func TestConcurrentReadsDuringUpdate(t *testing.T) {
	d := testDistributor(t, 8)
	data := payload(60_000, 13)
	if _, err := d.Upload("alice", "root", "f.bin", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	n0 := d.chunks[d.clients["alice"].Files["f.bin"].ChunkIdx[0]].DataLen
	gens := [][]byte{data[:n0], payload(n0, 14), payload(n0, 15)}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := d.GetFile("alice", "root", "f.bin")
				if err != nil {
					if !errors.Is(err, ErrUnavailable) {
						errCh <- fmt.Errorf("GetFile: %w", err)
						return
					}
					continue
				}
				if len(got) != len(data) || !bytes.Equal(got[n0:], data[n0:]) {
					errCh <- errors.New("GetFile: suffix diverged from original")
					return
				}
				head := got[:n0]
				if !bytes.Equal(head, gens[0]) && !bytes.Equal(head, gens[1]) && !bytes.Equal(head, gens[2]) {
					errCh <- errors.New("GetFile: chunk 0 matches no committed generation")
					return
				}
				if _, err := d.ChunkCount("alice", "root", "f.bin"); err != nil {
					errCh <- fmt.Errorf("ChunkCount: %w", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if err := d.UpdateChunk("alice", "root", "f.bin", 0, gens[1+i%2], UploadOptions{}); err != nil {
			t.Errorf("update %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
