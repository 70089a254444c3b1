package core

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/privacy"
)

// This file is the streaming data plane: UploadStream and GetFileTo move
// a file through the distributor behind an io.Reader / io.Writer, holding
// at most Config.StreamWindow stripes (up) or chunks (down) of payload in
// memory at once. The byte-slice entry points (Upload, GetFile) remain
// the whole-buffer fast path for small objects; these are the large-blob
// path where materializing the file would evict the chunk cache and
// starve the bufpool.

// readStripe reads up to width chunks of chunkSize bytes from r into
// pooled buffers. It returns io.EOF when the stream is exhausted; the
// final call may carry both data (a short last chunk) and io.EOF. first
// preserves the chunker.Split convention that an empty file still
// yields one empty chunk.
func readStripe(r io.Reader, chunkSize, width int, first bool) ([][]byte, int, error) {
	var datas [][]byte
	total := 0
	for len(datas) < width {
		buf := bufpool.Get(chunkSize)
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			datas = append(datas, buf[:n])
			total += n
		} else {
			bufpool.Put(buf)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if first && len(datas) == 0 {
				datas = append(datas, nil) // empty stream: one empty chunk
			}
			return datas, total, io.EOF
		}
		if err != nil {
			return datas, total, err
		}
	}
	return datas, total, nil
}

// UploadStream is Upload behind an io.Reader: it chunks, misleads (or
// encrypts), stripes and ships the file stripe-by-stripe as bytes
// arrive, holding at most Config.StreamWindow stripes of payload in
// flight — peak distributor memory for the request is O(window × stripe
// size) regardless of file size. The plan→ship→commit protocol is
// Upload's, function for function: openUpload, then placeStripe and
// fillStripe per stripe on one write ticket with the filename reserved
// for the whole transfer, commitUploadLocked putting the WAL record down
// before anything becomes visible, and abortUpload on any failure (read
// error, placement, provider exhaustion, log append) rolling back every
// blob already stored — a crashed or aborted stream leaves no orphans
// and no partial file.
func (d *Distributor) UploadStream(client, password, filename string, r io.Reader, pl privacy.Level, opts UploadOptions) (FileInfo, error) {
	chunkSize, err := d.policy.Size(pl)
	if err != nil {
		return FileInfo{}, err
	}
	u, err := d.openUpload(client, password, filename, pl, opts)
	if err != nil {
		return FileInfo{}, err
	}

	// ---- Pipeline: plan stripes as bytes arrive, ship them on worker
	// goroutines. The semaphore slot taken before reading a stripe is
	// released only after that stripe ships, so at most window stripes of
	// pooled buffers exist at once; window 1 degenerates to strict
	// lockstep (plan→ship→plan→ship), which deterministic harnesses use.
	window := d.streamWindow
	sem := make(chan struct{}, window)
	jobCh := make(chan *stripeJob)
	var (
		mu      sync.Mutex
		stored  []storedShard
		shipErr error
		wg      sync.WaitGroup
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return shipErr != nil
	}
	for i := 0; i < window; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				if !failed() {
					st, err := d.shipStaged(pl, job.shards, job.chunks, job.stripe[:], u.ticket)
					mu.Lock()
					stored = append(stored, st...)
					if err != nil && shipErr == nil {
						shipErr = err
					}
					mu.Unlock()
				}
				job.releaseBuffers()
				<-sem
			}
		}()
	}

	var jobs []*stripeJob
	var planErr error
	total := 0
	serial := 0
	for eof := false; !eof; {
		sem <- struct{}{}
		if failed() {
			<-sem
			break
		}
		datas, n, rerr := readStripe(r, chunkSize, u.width, serial == 0)
		total += n
		if rerr == io.EOF {
			eof = true
		} else if rerr != nil {
			for _, b := range datas {
				bufpool.Put(b)
			}
			planErr = fmt.Errorf("reading stream: %w", rerr)
			<-sem
			break
		}
		if len(datas) == 0 {
			<-sem
			break
		}
		sums := make([][32]byte, len(datas))
		for i, data := range datas {
			sums[i] = sha256.Sum256(data)
		}
		d.byteWork("split")
		job, perr := d.placeStripe(u, datas, sums, serial)
		if perr == nil {
			perr = d.fillStripe(u, job)
		}
		if perr != nil {
			job.releaseBuffers()
			planErr = perr
			<-sem
			break
		}
		serial += len(datas)
		jobs = append(jobs, job)
		jobCh <- job
	}
	close(jobCh)
	wg.Wait()

	// ---- Commit: the per-stripe rows in stream order, exactly Upload's
	// commit. shipErr is read without its mutex: the workers are done.
	err = planErr
	if err == nil {
		err = shipErr
	}
	if err == nil {
		newChunks, newStripes, chunkIdx := assembleStripes(jobs, serial)
		d.mu.Lock()
		err = d.commitUploadLocked(u, newChunks, newStripes, chunkIdx)
		d.mu.Unlock()
	}
	if err != nil {
		d.abortUpload(u, stored)
		return FileInfo{}, fmt.Errorf("core: upload aborted: %w", err)
	}
	d.counters.streamUploads.Add(1)
	return FileInfo{Filename: filename, PL: pl, Chunks: serial, Raid: u.level, Bytes: total}, nil
}

// GetFileTo streams a whole file into w in chunk order while up to
// Config.StreamWindow later chunks are fetched (and hedged) in the
// background — GetFile's read resilience with O(window) memory instead
// of a whole-file buffer. It is the one multi-chunk sink that does not
// run the batched read step: a barrier per batch measured slower than
// this stream of single-chunk ladder reads at every batch size that
// keeps the memory bound (EXPERIMENTS.md, PR 17). Chunks already resident in the generation-
// keyed cache are served from it, but streamed reads never populate the
// cache: a GiB-scale pass through an LRU sized for point reads would
// only evict every hot chunk. Returns the bytes written; on error the
// count reports how much of the prefix reached w before the failure.
func (d *Distributor) GetFileTo(w io.Writer, client, password, filename string) (int64, error) {
	// One snapshot of the whole file, like GetFile: the plans pin a single
	// file generation, so a concurrent update can never tear the stream.
	// Plans are metadata-sized (a few hundred bytes per chunk) — the
	// window bounds payload memory.
	s, err := d.openRead(client, password, filename, wholeFile)
	if err != nil {
		return 0, err
	}

	// Bounded lookahead: keep fetching ahead of the writer until
	// in-flight fetches plus buffered out-of-order chunks reach the
	// window, then write strictly in serial order from the caller's
	// goroutine. The results channel is buffered to the window, so a
	// fetch finishing after an early return can never block or leak.
	type item struct {
		serial int
		data   []byte
		err    error
	}
	n := len(s.reads)
	window := d.streamWindow
	results := make(chan item, window)
	pending := make(map[int][]byte, window)
	launched, inFlight, next := 0, 0, 0
	var written int64
	launch := func() {
		it, r := item{serial: launched}, &s.reads[launched]
		launched++
		inFlight++
		go func() {
			if it.data = r.res.recovered; !r.ok {
				it.data, it.err = d.fetchChunkPlan(&r.plan)
			}
			results <- it
		}()
	}
	for next < n {
		for launched < n && inFlight+len(pending) < window {
			launch()
		}
		it := <-results
		inFlight--
		if it.err != nil {
			return written, it.err
		}
		pending[it.serial] = it.data
		for {
			data, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			nw, werr := w.Write(data)
			written += int64(nw)
			if werr != nil {
				return written, fmt.Errorf("core: writing stream: %w", werr)
			}
			next++
		}
	}
	d.counters.fileReads.Add(1)
	d.counters.streamReads.Add(1)
	return written, nil
}
