package core

import (
	"cmp"
	"fmt"
	"io"
	"sync"

	"repro/internal/bufpool"
)

// readStripe reads up to width chunks of chunkSize bytes from r into
// pooled buffers. It returns io.EOF when the stream is exhausted; the
// final call may carry both data (a short last chunk) and io.EOF. first
// preserves the chunker.Split convention that an empty file still
// yields one empty chunk.
//
// Only r's own io.EOF ends the stream. io.ReadFull cannot serve here: it
// reports a short last chunk and a source that broke off alike, as
// io.ErrUnexpectedEOF, and that is also what net/http returns for a body
// cut short of its Content-Length or its terminating chunk. Any error
// but io.EOF fails the read, and with it the upload.
func readStripe(r io.Reader, chunkSize, width int, first bool) ([][]byte, int, error) {
	var datas [][]byte
	total := 0
	for len(datas) < width {
		buf := bufpool.Get(chunkSize)
		n, err := 0, error(nil)
		for m := 0; n < len(buf) && err == nil; n += m {
			m, err = r.Read(buf[n:])
		}
		if n > 0 {
			datas = append(datas, buf[:n])
			total += n
		} else {
			bufpool.Put(buf)
		}
		if err == io.EOF {
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

// GetFileTo streams a whole file into w in chunk order — GetFile's read
// resilience with O(window) memory instead of a whole-file buffer — at
// the upload's shape: Config.Parallelism fetch workers run one
// single-chunk ladder each (readMember: primary, mirrors, then
// reconstruction, hedged and verified), and the chunks fetched or in
// flight and not yet written belong to at most Config.StreamWindow
// stripes. The caller's goroutine writes strictly in serial order, so a
// writer that stalls holds the window still but not the fetches inside
// it. It is the one multi-chunk sink that does not run the batched read
// step: a barrier per batch measured slower than this stream of
// single-chunk ladder reads at every batch size that keeps the memory
// bound (EXPERIMENTS.md, "One read pipeline"). Chunks already resident
// in the generation-keyed cache are served from it, but streamed reads
// never populate the cache: a GiB-scale pass through an LRU sized for
// point reads would only evict every hot chunk. A fetched chunk's
// buffer goes back to the pool once written. Returns the bytes written;
// on error the count reports how much of the prefix reached w before the
// failure.
func (d *Distributor) GetFileTo(w io.Writer, client, password, filename string) (int64, error) {
	// One snapshot of the whole file, like GetFile: its rows pin a single
	// file generation, so a concurrent update can never tear the stream.
	// Rows are metadata-sized (a few hundred bytes per chunk) — the window
	// bounds payload memory.
	s, err := d.openRead(client, password, filename, wholeFile)
	if err != nil {
		return 0, err
	}
	f := newStreamFetch(s.reads, d.streamWindow)
	var wg sync.WaitGroup
	for range min(d.parallelism, len(s.reads)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.fetch(d)
		}()
	}
	written, err := f.write(w)
	wg.Wait() // a worker in a fetch when the writer failed ends with it
	if err != nil {
		return written, err
	}
	d.counters.fileReads.Add(1)
	d.counters.streamReads.Add(1)
	return written, nil
}

// streamFetch is what GetFileTo's fetch workers and its writer share, all
// of it under mu: workers claim chunks in serial order up to open and
// settle them in place (reads[i].ok), and the writer opens the next
// stripe's chunks as it finishes writing one. Once stopped no worker
// claims another chunk; a worker in a fetch finishes it and exits, so
// none outlives its fetch and none waits on a writer that has returned.
type streamFetch struct {
	mu      sync.Mutex
	wake    sync.Cond // a fetch ended, the window moved, or the stream stopped
	reads   []chunkRead
	ends    []int // ends[k]: one past the last chunk of the k-th stripe
	window  int   // stripes a worker may run ahead into, the one being written included
	claimed int   // chunks handed to a worker (or passed over: the cache had them)
	open    int   // chunks the window admits
	busy    int   // fetches in flight
	err     error // the first fetch that failed
	stopped bool  // a fetch failed or the writer returned: claim nothing more
}

func newStreamFetch(reads []chunkRead, window int) *streamFetch {
	f := &streamFetch{reads: reads, window: window}
	f.wake.L = &f.mu
	for i := range reads {
		if i+1 == len(reads) || reads[i+1].rows != reads[i].rows {
			f.ends = append(f.ends, i+1)
		}
	}
	f.admit(0)
	return f
}

// admit opens the chunks of the window's stripes from stripe k on.
func (f *streamFetch) admit(k int) {
	if k < len(f.ends) {
		f.open = f.ends[min(k+f.window, len(f.ends))-1]
	}
}

// fetch is one worker: claim the next chunk the window admits, read it
// through its ladder and settle it, until the file is claimed or the
// stream stopped.
func (f *streamFetch) fetch(d *Distributor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		for !f.stopped && f.claimed < len(f.reads) && f.claimed == f.open {
			f.wake.Wait()
		}
		if f.stopped || f.claimed == len(f.reads) {
			return
		}
		r := &f.reads[f.claimed]
		f.claimed++
		if r.ok {
			continue
		}
		f.busy++
		f.mu.Unlock()
		res, err := d.readMember(r.rows, r.at)
		f.mu.Lock()
		f.busy--
		if err != nil {
			f.err = cmp.Or(f.err, err)
			f.stopped = true
		} else {
			r.res, r.ok = res, true
		}
		f.wake.Broadcast()
	}
}

// write is the writer: each chunk in serial order once it is settled, its
// buffer back to the pool once written unless it came from the cache (a
// cache hit carries no payload). After a failed fetch it still writes
// what settled before the gap, so the error follows the longest correct
// prefix. It stops the stream on its way out, failed or not.
func (f *streamFetch) write(w io.Writer) (int64, error) {
	var written int64
	f.mu.Lock()
	defer func() {
		f.stopped = true
		f.wake.Broadcast()
		f.mu.Unlock()
	}()
	stripe := 0
	for next := range f.reads {
		r := &f.reads[next]
		for !r.ok && !(f.stopped && f.busy == 0) {
			f.wake.Wait()
		}
		if !r.ok {
			return written, f.err
		}
		res := r.res
		r.res = fetchResult{} // the snapshot outlives the chunk: the window bounds memory only if it lets go
		f.mu.Unlock()
		nw, werr := w.Write(res.recovered)
		written += int64(nw)
		if res.payload != nil {
			bufpool.Put(res.recovered)
		}
		f.mu.Lock()
		if werr != nil {
			return written, fmt.Errorf("core: writing stream: %w", werr)
		}
		if next+1 == f.ends[stripe] {
			stripe++
			f.admit(stripe)
			f.wake.Broadcast()
		}
	}
	return written, nil
}
