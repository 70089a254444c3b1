package core

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// This file is the streaming data plane: UploadStream and GetFileTo move
// a file through the distributor stripe-by-stripe behind an io.Reader /
// io.Writer, holding at most Config.StreamWindow stripes of payload in
// memory at once. The byte-slice entry points (Upload, GetFile) remain
// the whole-buffer fast path for small objects; these are the large-blob
// path where materializing the file would evict the chunk cache and
// starve the bufpool.

// stripeJob is one stripe of a streaming upload flowing from the planner
// to a ship worker: the staged shards plus the metadata rows they patch
// on failover. Positions inside a job are job-relative — chunkPos
// indexes job.chunks and stripePos is always 0 — because the stripe is
// planned before the distributor knows how many stripes precede it; the
// commit rebases everything in stripe order once the final stripe lands.
type stripeJob struct {
	shards []stagedShard
	chunks []chunkEntry
	stripe [1]stripeEntry
	pooled [][]byte // buffers released to bufpool once the job ships
}

func (j *stripeJob) releaseBuffers() {
	for _, b := range j.pooled {
		bufpool.Put(b)
	}
	j.pooled = nil
}

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

// planStreamStripe stages one stripe of a streaming upload under d.mu:
// payload preparation (the mislead RNG and the encryption nonce are
// lock-guarded), placement, virtual-id allocation, parity and ticket
// staging — the same plan phase Upload runs for the whole file, scoped
// to one stripe. datas are the stripe's raw chunk buffers (ownership
// moves into the returned job); baseSerial numbers the first chunk.
func (d *Distributor) planStreamStripe(t *writeTicket, client, filename string, pl privacy.Level, level raid.Level, encKey []byte, opts UploadOptions, datas [][]byte, baseSerial int) (*stripeJob, error) {
	parity := level.ParityShards()
	job := &stripeJob{pooled: append([][]byte(nil), datas...)}

	sums := make([][32]byte, len(datas))
	for i, data := range datas {
		sums[i] = sha256.Sum256(data)
	}

	// Everything that touches distributor state — payload preparation
	// (the mislead RNG and the encryption nonce are lock-guarded),
	// placement, virtual-id allocation and ticket staging — runs under
	// d.mu. Padding and parity math run after the unlock: they touch only
	// job-local buffers and are the bulk of the planning cost, and a
	// streaming upload acquires d.mu once per stripe — keeping the hold
	// O(metadata) instead of O(bytes) lets concurrent readers interleave
	// with a long transfer instead of convoying behind it. The parity
	// payloads are staged before they are computed, which is safe because
	// a job reaches a ship worker only after this function returns.
	payloads := make([][]byte, len(datas))
	parityBufs := make([][]byte, parity)
	shardLen := 0
	err := func() error {
		d.mu.Lock()
		defer d.mu.Unlock()

		for i, data := range datas {
			payload, inj, err := d.preparePayload(data, encKey, opts, &job.pooled)
			if err != nil {
				return err
			}
			payloads[i] = payload
			job.chunks = append(job.chunks, chunkEntry{
				PL:      pl,
				SPIndex: -1,
				Mislead: inj,
				Client:  client, Filename: filename,
				Serial:     baseSerial + i,
				PayloadLen: len(payload),
				DataLen:    len(data),
				Sum:        sums[i],
				EncKey:     encKey,
			})
			if len(payload) > shardLen {
				shardLen = len(payload)
			}
		}
		if shardLen == 0 {
			shardLen = 1 // parity over empty chunks still needs one byte
		}

		placement, err := d.placeShards(pl, len(datas)+parity)
		if err != nil {
			return err
		}
		st := &job.stripe[0]
		st.Level = level
		st.ShardLen = shardLen
		for gi := range datas {
			vid := d.vids.Next()
			provIdx := placement[gi]
			ce := &job.chunks[gi]
			ce.VirtualID = vid
			ce.CPIndex = provIdx

			exclude := map[int]bool{provIdx: true}
			for r := 0; r < opts.Replicas; r++ {
				mIdx, err := d.placeParityExcluding(pl, exclude)
				if err != nil {
					return fmt.Errorf("placing replica %d of chunk %d: %w", r+1, ce.Serial, err)
				}
				exclude[mIdx] = true
				mvid := d.vids.Next()
				ce.Mirrors = append(ce.Mirrors, mirrorRef{VirtualID: mvid, CPIndex: mIdx})
				job.shards = append(job.shards, stagedShard{
					kind: shardMirror, chunkPos: gi, mirrorPos: r,
					stripePos: 0, parityPos: -1,
					provIdx: mIdx, vid: mvid, payload: payloads[gi],
				})
				d.stageLocked(t, mIdx, mvid)
			}

			st.Members = append(st.Members, gi)
			job.shards = append(job.shards, stagedShard{
				kind: shardData, chunkPos: gi, mirrorPos: -1,
				stripePos: 0, parityPos: -1,
				provIdx: provIdx, vid: vid, payload: payloads[gi],
			})
			d.stageLocked(t, provIdx, vid)
		}
		for pi := 0; pi < parity; pi++ {
			vid := d.vids.Next()
			provIdx := placement[len(datas)+pi]
			parityBufs[pi] = bufpool.Get(shardLen)
			job.pooled = append(job.pooled, parityBufs[pi])
			st.Parity = append(st.Parity, parityShard{VirtualID: vid, CPIndex: provIdx})
			job.shards = append(job.shards, stagedShard{
				kind: shardParity, chunkPos: -1, mirrorPos: -1,
				stripePos: 0, parityPos: pi,
				provIdx: provIdx, vid: vid, payload: parityBufs[pi],
			})
			d.stageLocked(t, provIdx, vid)
		}
		return nil
	}()
	if err != nil {
		return job, err
	}

	if parity > 0 {
		padded := make([][]byte, len(datas))
		for gi, p := range payloads {
			if len(p) == shardLen {
				padded[gi] = p
			} else {
				pad := bufpool.Get(shardLen)
				n := copy(pad, p)
				clear(pad[n:])
				padded[gi] = pad
				job.pooled = append(job.pooled, pad)
			}
		}
		if err := raid.ParityInto(level, padded, parityBufs); err != nil {
			return job, err
		}
	}
	return job, nil
}

// UploadStream is Upload behind an io.Reader: it chunks, misleads (or
// encrypts), stripes and ships the file stripe-by-stripe as bytes
// arrive, holding at most Config.StreamWindow stripes of payload in
// flight — peak distributor memory for the request is O(window × stripe
// size) regardless of file size. The plan→ship→commit protocol is
// unchanged: every stripe stages on one write ticket, the filename is
// reserved for the whole transfer, the WAL commit record lands before
// anything becomes visible, and any failure (read error, placement,
// provider exhaustion, log append) rolls back every blob already stored
// — a crashed or aborted stream leaves no orphans and no partial file.
func (d *Distributor) UploadStream(client, password, filename string, r io.Reader, pl privacy.Level, opts UploadOptions) (FileInfo, error) {
	level, err := d.validateUpload(filename, pl, opts)
	if err != nil {
		return FileInfo{}, err
	}
	chunkSize, err := d.policy.Size(pl)
	if err != nil {
		return FileInfo{}, err
	}
	var encKey []byte
	if len(opts.EncryptKey) > 0 {
		encKey = append([]byte(nil), opts.EncryptKey...)
	}
	parity := level.ParityShards()

	// ---- Open: authorize, reserve the filename, open the ticket ----
	resKey := client + "\x00" + filename
	d.mu.Lock()
	if _, err := d.authorize(client, password, pl); err != nil {
		d.mu.Unlock()
		return FileInfo{}, err
	}
	c := d.clients[client]
	if _, dup := c.Files[filename]; dup || d.reserved[resKey] {
		d.mu.Unlock()
		return FileInfo{}, fmt.Errorf("%w: %s", ErrExists, filename)
	}
	width, err := d.effectiveWidth(pl, parity)
	if err != nil {
		d.mu.Unlock()
		return FileInfo{}, err
	}
	d.reserved[resKey] = true
	t := d.newTicketLocked()
	d.fidSeq++
	fid := d.fidSeq
	d.mu.Unlock()

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
					st, err := d.shipStaged(pl, job.shards, job.chunks, job.stripe[:], t)
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
		datas, n, rerr := readStripe(r, chunkSize, width, serial == 0)
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
		job, perr := d.planStreamStripe(t, client, filename, pl, level, encKey, opts, datas, serial)
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

	abort := func(cause error) (FileInfo, error) {
		d.mu.Lock()
		d.releaseTicketLocked(t)
		delete(d.reserved, resKey)
		d.mu.Unlock()
		d.rollbackStored(stored)
		return FileInfo{}, fmt.Errorf("core: upload aborted: %w", cause)
	}
	if planErr != nil {
		return abort(planErr)
	}
	if shipErr != nil {
		return abort(shipErr)
	}

	// ---- Commit: assemble the per-stripe rows in stream order, rebase
	// them onto the live tables and log before anything becomes visible —
	// byte-identical semantics to Upload's commit.
	nChunks := serial
	fe := &fileEntry{Filename: filename, PL: pl, FID: fid, Raid: level, ChunkIdx: make([]int, nChunks)}
	newChunks := make([]chunkEntry, 0, nChunks)
	newStripes := make([]stripeEntry, 0, len(jobs))
	for si, job := range jobs {
		cbase := len(newChunks)
		st := job.stripe[0]
		st.ID = si
		for j := range st.Members {
			st.Members[j] += cbase
		}
		for i := range job.chunks {
			job.chunks[i].StripeID = si
			fe.ChunkIdx[job.chunks[i].Serial] = cbase + i
		}
		newChunks = append(newChunks, job.chunks...)
		newStripes = append(newStripes, st)
	}

	d.mu.Lock()
	base := len(d.chunks)
	sbase := len(d.stripes)
	for i := range newChunks {
		newChunks[i].StripeID += sbase
	}
	for i := range newStripes {
		newStripes[i].ID += sbase
		for j := range newStripes[i].Members {
			newStripes[i].Members[j] += base
		}
	}
	for s := range fe.ChunkIdx {
		fe.ChunkIdx[s] += base
	}
	c = d.clients[client]
	rec := &walRecord{
		Op: "upload", Client: client, Filename: filename,
		FID: fe.FID, PL: pl, Raid: level,
		ChunksBase: base, StripesBase: sbase,
		Chunks: newChunks, Stripes: newStripes, ChunkIdx: fe.ChunkIdx,
		FileGen: fe.Gen, ClientGen: c.Gen + 1, Gen: d.gen + 1,
	}
	if err := d.logAppendLocked(rec); err != nil {
		d.releaseTicketLocked(t)
		delete(d.reserved, resKey)
		d.mu.Unlock()
		d.rollbackStored(stored)
		return FileInfo{}, fmt.Errorf("core: upload aborted: %w", err)
	}
	d.chunks = append(d.chunks, newChunks...)
	d.stripes = append(d.stripes, newStripes...)
	d.commitTicketLocked(t)
	delete(d.reserved, resKey)
	c.Files[filename] = fe
	c.Count += nChunks
	c.Gen++
	d.gen++
	d.counters.uploads.Add(1)
	d.counters.streamUploads.Add(1)
	d.maybeCheckpointLocked()
	d.mu.Unlock()

	return FileInfo{Filename: filename, PL: pl, Chunks: nChunks, Raid: level, Bytes: total}, nil
}

// GetFileTo streams a whole file into w in chunk order while up to
// Config.StreamWindow later chunks are fetched (and hedged) in the
// background — GetFile's read resilience with O(window) memory instead
// of a whole-file buffer. Chunks already resident in the generation-
// keyed cache are served from it, but streamed reads never populate the
// cache: a GiB-scale pass through an LRU sized for point reads would
// only evict every hot chunk. Returns the bytes written; on error the
// count reports how much of the prefix reached w before the failure.
func (d *Distributor) GetFileTo(w io.Writer, client, password, filename string) (int64, error) {
	d.mu.RLock()
	c, _, err := d.auth(client, password)
	if err != nil {
		d.mu.RUnlock()
		return 0, err
	}
	fe, ok := c.Files[filename]
	if !ok {
		d.mu.RUnlock()
		return 0, fmt.Errorf("%w: %s", ErrNoSuchFile, filename)
	}
	if _, err := d.authorize(client, password, fe.PL); err != nil {
		d.mu.RUnlock()
		return 0, err
	}
	// Snapshot every chunk's fetch plan under one RLock hold, like
	// GetFile: the plans pin a single file generation, so a concurrent
	// update can never tear the stream. Plans are metadata-sized (a few
	// hundred bytes per chunk) — the window bounds payload memory.
	fid, fileGen := fe.FID, fe.Gen
	plans := make([]fetchPlan, len(fe.ChunkIdx))
	var cached [][]byte
	if d.cache != nil {
		cached = make([][]byte, len(fe.ChunkIdx))
	}
	for serial, idx := range fe.ChunkIdx {
		if idx < 0 {
			d.mu.RUnlock()
			return 0, fmt.Errorf("%w: serial %d was removed", ErrNoSuchChunk, serial)
		}
		if cached != nil {
			if data, ok := d.cache.get(cacheKey{fid: fid, serial: serial, gen: fileGen}); ok {
				cached[serial] = data
				continue
			}
		}
		plans[serial] = d.planFetch(&d.chunks[idx])
	}
	d.mu.RUnlock()

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
	n := len(plans)
	window := d.streamWindow
	results := make(chan item, window)
	pending := make(map[int][]byte, window)
	launched, inFlight, next := 0, 0, 0
	var written int64
	launch := func() {
		s := launched
		launched++
		inFlight++
		if cached != nil && cached[s] != nil {
			data := cached[s]
			go func() { results <- item{serial: s, data: data} }()
			return
		}
		plan := &plans[s]
		go func() {
			data, err := d.fetchChunkPlan(plan)
			results <- item{serial: s, data: data, err: err}
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
