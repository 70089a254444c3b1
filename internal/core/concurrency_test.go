package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/privacy"
)

// TestConcurrentClients hammers one distributor from many goroutines:
// uploads, reads, range reads, updates and removals interleaved. The
// distributor must stay consistent and race-free (run under -race).
func TestConcurrentClients(t *testing.T) {
	d := testDistributor(t, 8)
	const workers = 6
	const filesPerWorker = 5

	// Worker 0 reuses the fixture's "alice"; the rest get fresh accounts.
	for w := 1; w < workers; w++ {
		name := fmt.Sprintf("client%d", w)
		if err := d.RegisterClient(name); err != nil {
			t.Fatal(err)
		}
		if err := d.AddPassword(name, "pw", privacy.High); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, pw := fmt.Sprintf("client%d", w), "pw"
			if w == 0 {
				client, pw = "alice", "root"
			}
			for f := 0; f < filesPerWorker; f++ {
				name := fmt.Sprintf("w%d-f%d", w, f)
				data := payload(10_000+w*1000+f*100, int64(w*100+f))
				if _, err := d.Upload(client, pw, name, data, privacy.Moderate, UploadOptions{}); err != nil {
					errCh <- fmt.Errorf("worker %d upload %s: %w", w, name, err)
					return
				}
				got, err := d.GetFile(client, pw, name)
				if err != nil {
					errCh <- fmt.Errorf("worker %d read %s: %w", w, name, err)
					return
				}
				if !bytes.Equal(got, data) {
					errCh <- fmt.Errorf("worker %d read %s: mismatch", w, name)
					return
				}
				if _, err := d.GetRange(client, pw, name, 100, 500); err != nil {
					errCh <- fmt.Errorf("worker %d range %s: %w", w, name, err)
					return
				}
				if f%2 == 1 {
					if err := d.UpdateChunk(client, pw, name, 0, []byte("updated"), UploadOptions{}); err != nil {
						errCh <- fmt.Errorf("worker %d update %s: %w", w, name, err)
						return
					}
				}
				if f%3 == 2 {
					if err := d.RemoveFile(client, pw, name); err != nil {
						errCh <- fmt.Errorf("worker %d remove %s: %w", w, name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Accounting holds after the storm.
	st := d.Stats()
	for i, p := range d.fleet.All() {
		if p.Len() != st.PerProvider[i] {
			t.Fatalf("provider %d holds %d keys, table says %d", i, p.Len(), st.PerProvider[i])
		}
	}
	if st.Clients != workers {
		t.Fatalf("clients = %d", st.Clients)
	}
}

// TestConcurrentReadsDuringOutage interleaves reads with providers
// flapping, exercising the RAID path under concurrency.
func TestConcurrentReadsDuringOutage(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(60_000, 99)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			p, _ := d.fleet.At(i % 6)
			p.SetOutage(true)
			p.SetOutage(false)
			i++
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got, err := d.GetFile("alice", "root", "f")
				if err != nil {
					// A read can legitimately fail if two providers happen
					// to be down at the same instant; content corruption
					// cannot.
					continue
				}
				if !bytes.Equal(got, data) {
					errCh <- fmt.Errorf("read %d: corrupted content", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flapper.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
