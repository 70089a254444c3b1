package core

import (
	"fmt"
	"io"

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
	// One snapshot of the whole file, like GetFile: its rows pin a single
	// file generation, so a concurrent update can never tear the stream.
	// Rows are metadata-sized (a few hundred bytes per chunk) — the window
	// bounds payload memory.
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
				var res fetchResult
				res, it.err = d.readMember(r.rows, r.at)
				it.data = res.recovered
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
