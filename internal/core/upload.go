package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/cryptofrag"
	"repro/internal/mislead"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// validateUpload checks an upload's argument surface and resolves the
// effective RAID level. It reads only immutable configuration, so it
// takes no lock.
func (d *Distributor) validateUpload(filename string, pl privacy.Level, opts UploadOptions) (raid.Level, error) {
	if filename == "" {
		return 0, fmt.Errorf("%w: empty filename", ErrConfig)
	}
	if !pl.Valid() {
		return 0, fmt.Errorf("%w: privacy level %v", ErrConfig, pl)
	}
	if opts.MisleadFraction < 0 || opts.MisleadFraction >= 1 {
		return 0, fmt.Errorf("%w: mislead fraction %v outside [0,1)", ErrConfig, opts.MisleadFraction)
	}
	if opts.Replicas < 0 {
		return 0, fmt.Errorf("%w: replicas %d", ErrConfig, opts.Replicas)
	}
	if len(opts.EncryptKey) > 0 {
		switch len(opts.EncryptKey) {
		case 16, 24, 32:
		default:
			return 0, fmt.Errorf("%w: encryption key must be 16, 24 or 32 bytes", ErrConfig)
		}
		if opts.MisleadFraction > 0 || len(opts.MisleadLines) > 0 {
			return 0, fmt.Errorf("%w: misleading data and encryption are mutually exclusive", ErrConfig)
		}
	}
	level := opts.Assurance
	if level == 0 {
		level = d.defaultRaid
	}
	if opts.NoParity {
		level = raid.None
	}
	if !level.Valid() {
		return 0, fmt.Errorf("%w: raid level %v", ErrConfig, level)
	}
	return level, nil
}

// preparePayload builds a chunk's stored payload from its original data:
// encryption under nonce, line decoys or byte decoys drawn from the
// write's decoy stream, per opts. It is a pure function of its arguments,
// so every write path runs it without d.mu. Byte decoys inflate into a
// bufpool buffer, which is appended to *pooled: the caller owns that list
// and returns its buffers once the payload has shipped (providers copy
// on Put). Without decoys or a key the payload aliases data.
func preparePayload(data, encKey []byte, opts UploadOptions, nonce uint64, decoys *mislead.Stream, pooled *[][]byte) ([]byte, mislead.Injection, error) {
	switch {
	case encKey != nil:
		payload, err := cryptofrag.Encrypt(encKey, data, nonce)
		return payload, mislead.Injection{}, err
	case len(opts.MisleadLines) > 0:
		return mislead.InjectLines(data, opts.MisleadLines, rand.New(decoys))
	case opts.MisleadFraction > 0:
		buf := bufpool.Get(mislead.InflatedLen(len(data), opts.MisleadFraction))
		*pooled = append(*pooled, buf)
		return mislead.InjectTo(buf[:0], data, opts.MisleadFraction, decoys)
	}
	return data, mislead.Injection{}, nil
}

// decoyRNG derives the decoy stream of one write from the configured
// seed and the write's identity: the file's FID, the first serial it
// covers and the file generation it produces (0 for the upload itself).
// FIDs are never reissued, not even across a recovery, and every
// committed update moves the generation, so an UpdateChunk never replays
// the positions of the chunk it replaces — while two distributors given
// the same seed and the same operations still store identical bytes.
// Returns nil when opts asks for no decoys.
func (d *Distributor) decoyRNG(opts UploadOptions, fid uint64, serial int, gen uint64) *mislead.Stream {
	if opts.MisleadFraction == 0 && len(opts.MisleadLines) == 0 {
		return nil
	}
	var id [32]byte
	binary.LittleEndian.PutUint64(id[0:], uint64(d.misleadSeed))
	binary.LittleEndian.PutUint64(id[8:], fid)
	binary.LittleEndian.PutUint64(id[16:], uint64(serial))
	binary.LittleEndian.PutUint64(id[24:], gen)
	sum := sha256.Sum256(id[:])
	return mislead.NewStream(int64(binary.LittleEndian.Uint64(sum[:])))
}

// uploadCtx is what one upload carries from its open hold to its commit.
type uploadCtx struct {
	client, filename string
	resKey           string // the filename reservation in d.reserved
	pl               privacy.Level
	level            raid.Level
	opts             UploadOptions
	encKey           []byte
	chunkSize        int
	width            int // data shards per stripe
	fid              uint64
	ticket           *writeTicket
	decoys           *mislead.Stream // nil when opts asks for none
}

// openUpload validates the request and runs the first, short hold of
// d.mu: authorize, reserve the filename (a concurrent identical upload
// fails fast with ErrExists), open the write ticket and take the FID.
// Everything opened here ends in commitUploadLocked or abortUpload.
func (d *Distributor) openUpload(client, password, filename string, pl privacy.Level, opts UploadOptions) (*uploadCtx, error) {
	level, err := d.validateUpload(filename, pl, opts)
	if err != nil {
		return nil, err
	}
	chunkSize, err := d.policy.Size(pl)
	if err != nil {
		return nil, err
	}
	u := &uploadCtx{
		client: client, filename: filename, resKey: client + "\x00" + filename,
		pl: pl, level: level, opts: opts, chunkSize: chunkSize,
	}
	if len(opts.EncryptKey) > 0 {
		u.encKey = append([]byte(nil), opts.EncryptKey...)
	}
	err = func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		c, err := d.authorize(client, password, pl)
		if err = d.writeCheckLocked(err); err != nil {
			return err
		}
		if _, dup := c.Files[filename]; dup || d.reserved[u.resKey] {
			return fmt.Errorf("%w: %s", ErrExists, filename)
		}
		if u.width, err = d.effectiveWidth(pl, level.ParityShards()); err != nil {
			return err
		}
		d.reserved[u.resKey] = true
		u.ticket = d.newTicketLocked()
		d.fidSeq++
		u.fid = d.fidSeq
		return nil
	}()
	if err != nil {
		return nil, err
	}
	u.decoys = d.decoyRNG(opts, u.fid, 0, 0)
	return u, nil
}

// abortUpload withdraws an open upload — staging and reservation
// released, every blob already stored rolled back — leaving no trace.
func (d *Distributor) abortUpload(u *uploadCtx, stored []storedShard) {
	d.mu.Lock()
	d.releaseTicketLocked(u.ticket)
	delete(d.reserved, u.resKey)
	d.mu.Unlock()
	d.rollbackStored(stored)
}

// stripeJob is one planned stripe of an upload: its rows — private to
// the upload until its commit — and the staged shards that fill their
// slots. Positions inside a job are job-relative (chunk slots index the
// job's chunks, its stripe is stripe 0) because a stripe is planned
// before the distributor knows how many stripes precede it;
// assembleStripes puts them in file order.
type stripeJob struct {
	stripeRows
	shards []stagedShard
	datas  [][]byte // the stripe's raw chunks, what fillStripe works from
	nonce  uint64   // chunk i encrypts under nonce+i
	pooled [][]byte // buffers released to bufpool once the job ships

	// The stripe's shards ship on different put workers; unshipped counts
	// down to the worker that releases the stripe.
	unshipped atomic.Int32
}

// releaseBuffers returns the stripe's scratch to bufpool and drops every
// reference into it: what stays is the rows, which is all a commit needs.
func (j *stripeJob) releaseBuffers() {
	releaseBuffers(j.pooled)
	j.pooled, j.datas, j.shards = nil, nil, nil
}

// placeStripe stages one stripe of an upload: one hold of d.mu that does
// everything touching distributor state — the stripe's block of AES-CTR
// nonces, placement, virtual ids and ticket staging — and nothing that
// touches a payload byte or asks a provider anything (placement reads
// each provider's last known liveness and breaker state from memory).
// The hold is O(shards) however large the chunks are, so readers
// interleave with a long write instead of convoying behind it. datas are
// the stripe's raw chunk buffers (ownership moves into the returned job,
// also on error), sums their SHA-256 and baseSerial numbers the first
// chunk. The shards come back staged but without payloads; fillStripe
// supplies those, which is safe because a shard reaches a put worker only
// after both.
func (d *Distributor) placeStripe(u *uploadCtx, datas [][]byte, sums [][32]byte, baseSerial int) (*stripeJob, error) {
	parity := u.level.ParityShards()
	job := &stripeJob{
		stripeRows: stripeRows{pl: u.pl, ticket: u.ticket, chunks: make([]chunkEntry, len(datas))},
		shards:     make([]stagedShard, 0, len(datas)*(1+u.opts.Replicas)+parity),
		datas:      datas,
		// a hint: the chunks, an inflated or padded copy of each, the parity
		pooled: append(make([][]byte, 0, 2*len(datas)+parity), datas...),
	}
	st := &job.stripes[0]
	st.Level = u.level
	st.Members = make([]int, 0, len(datas))

	d.mu.Lock()
	defer d.mu.Unlock()
	if u.encKey != nil {
		job.nonce = d.reserveNoncesLocked(len(datas))
	}
	// The stripe's data and parity on distinct providers, in one pick;
	// each mirror homed away from its chunk's other copies.
	placement, err := d.placeShards(u.pl, len(datas)+parity)
	if err != nil {
		return job, err
	}
	for gi, data := range datas {
		vid := d.vids.Next()
		provIdx := placement[gi]
		ce := &job.chunks[gi]
		*ce = chunkEntry{
			VirtualID: vid,
			PL:        u.pl,
			CPIndex:   provIdx,
			SPIndex:   -1,
			Client:    u.client,
			Filename:  u.filename,
			Serial:    baseSerial + gi,
			DataLen:   len(data),
			Sum:       sums[gi],
			EncKey:    u.encKey,
		}
		for r := 0; r < u.opts.Replicas; r++ {
			ce.Mirrors = append(ce.Mirrors, mirrorRef{VirtualID: d.vids.Next(), CPIndex: -1})
			s := shardSlot{kind: BlobMirror, idx: gi, sub: r}
			if err := d.homeLocked(&job.stripeRows, s, nil); err != nil {
				return job, fmt.Errorf("placing replica %d of chunk %d: %w", r+1, ce.Serial, err)
			}
			job.shards = append(job.shards, stagedShard{slot: s})
		}
		st.Members = append(st.Members, gi)
		job.shards = append(job.shards, stagedShard{slot: shardSlot{kind: BlobChunk, idx: gi}})
		d.stageLocked(u.ticket, provIdx, vid)
	}
	for pi := 0; pi < parity; pi++ {
		vid := d.vids.Next()
		provIdx := placement[len(datas)+pi]
		st.Parity = append(st.Parity, parityShard{VirtualID: vid, CPIndex: provIdx})
		job.shards = append(job.shards, stagedShard{slot: shardSlot{kind: BlobParity, sub: pi}})
		d.stageLocked(u.ticket, provIdx, vid)
	}
	job.unshipped.Store(int32(len(job.shards)))
	return job, nil
}

// fillStripe does a placed stripe's byte work, with no lock held:
// encryption or decoy injection per chunk, then padding and parity, on
// job-local buffers.
func (d *Distributor) fillStripe(u *uploadCtx, job *stripeJob) error {
	payloads := make([][]byte, len(job.datas))
	for i, data := range job.datas {
		payload, inj, err := preparePayload(data, u.encKey, u.opts, job.nonce+uint64(i), u.decoys, &job.pooled)
		if err != nil {
			return err
		}
		payloads[i] = payload
		job.chunks[i].Mislead = inj
		job.chunks[i].PayloadLen = len(payload)
	}
	d.byteWork("prepare")
	shardLen := stripeShardLen(payloads)
	job.stripes[0].ShardLen = shardLen
	parityBufs, err := d.encodeParity(u.level, payloads, shardLen, &job.pooled)
	if err != nil {
		return err
	}
	for si := range job.shards {
		s := &job.shards[si]
		if s.slot.kind == BlobParity {
			s.payload = parityBufs[s.slot.sub]
		} else {
			s.payload = payloads[s.slot.idx]
		}
	}
	return nil
}

// assembleStripes lays the planned stripes out in file order: the chunk
// and stripe rows of the whole file, positions relative to those slices
// (commitUploadLocked rebases them onto the live tables), and the
// serial → chunk row index.
func assembleStripes(jobs []*stripeJob, nChunks int) (newChunks []chunkEntry, newStripes []stripeEntry, chunkIdx []int) {
	newChunks = make([]chunkEntry, 0, nChunks)
	newStripes = make([]stripeEntry, 0, len(jobs))
	chunkIdx = make([]int, nChunks)
	for si, job := range jobs {
		cbase := len(newChunks)
		st := job.stripes[0]
		st.ID = si
		for j := range st.Members {
			st.Members[j] += cbase
		}
		for i := range job.chunks {
			job.chunks[i].StripeID = si
			chunkIdx[job.chunks[i].Serial] = cbase + i
		}
		newChunks = append(newChunks, job.chunks...)
		newStripes = append(newStripes, st)
	}
	return newChunks, newStripes, chunkIdx
}

// commitUploadLocked is the commit every upload ends in: rebase the
// staged rows onto the live tables and commit them as one upload record.
// When the commit fails nothing was touched and the caller aborts like a
// failed ship. Callers hold d.mu.
func (d *Distributor) commitUploadLocked(u *uploadCtx, newChunks []chunkEntry, newStripes []stripeEntry, chunkIdx []int) error {
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
	for serial := range chunkIdx {
		chunkIdx[serial] += base
	}
	rec := &walRecord{
		Op: "upload", Client: u.client, Filename: u.filename,
		FID: u.fid, PL: u.pl, Raid: u.level,
		ChunksBase: base, StripesBase: sbase,
		Chunks: newChunks, Stripes: newStripes, ChunkIdx: chunkIdx,
		ClientGen: d.clients[u.client].Gen + 1, Gen: d.gen + 1,
	}
	if err := d.commitLocked(rec, u.ticket); err != nil {
		return err
	}
	delete(d.reserved, u.resKey)
	d.counters.uploads.Add(1)
	return nil
}

// Upload receives a file from a client, fragments it according to the
// file's privacy level, optionally injects misleading bytes (or
// encrypts), stripes the chunks with RAID parity and scatters everything
// over the provider fleet. It returns the chunk count the client later
// uses to request chunks by (filename, serial). It is UploadStream over
// the caller's slice.
func (d *Distributor) Upload(client, password, filename string, data []byte, pl privacy.Level, opts UploadOptions) (FileInfo, error) {
	return d.upload(client, password, filename, bytes.NewReader(data), pl, opts)
}

// UploadStream is Upload behind an io.Reader, for objects the caller
// does not hold (or want) in memory: the file is chunked, striped and
// shipped as its bytes arrive.
func (d *Distributor) UploadStream(client, password, filename string, r io.Reader, pl privacy.Level, opts UploadOptions) (FileInfo, error) {
	info, err := d.upload(client, password, filename, r, pl, opts)
	if err == nil {
		d.counters.streamUploads.Add(1)
	}
	return info, err
}

// planStripe takes the upload's next stripe off r and plans it: read,
// SHA-256, placeStripe, fillStripe. The job is nil when there is nothing
// to ship — the stream ended on a stripe boundary (io.EOF), or a read,
// placement or byte-work error, with the stripe's buffers already back in
// the pool. io.EOF beside a job marks the file's last stripe.
func (d *Distributor) planStripe(u *uploadCtx, r io.Reader, serial int) (*stripeJob, int, error) {
	datas, n, rerr := readStripe(r, u.chunkSize, u.width, serial == 0)
	if (rerr != nil && rerr != io.EOF) || len(datas) == 0 {
		releaseBuffers(datas)
		if rerr != io.EOF {
			rerr = fmt.Errorf("reading stream: %w", rerr)
		}
		return nil, 0, rerr
	}
	sums := make([][32]byte, len(datas))
	for i, data := range datas {
		sums[i] = sha256.Sum256(data)
	}
	d.byteWork("split")
	job, err := d.placeStripe(u, datas, sums, serial)
	if err == nil {
		err = d.fillStripe(u, job)
	}
	if err != nil {
		job.releaseBuffers()
		return nil, 0, err
	}
	return job, n, rerr
}

// upload is the write pipeline, the only one. d.mu is held for metadata
// alone: openUpload's short hold, one placeStripe hold per stripe, and
// the commit.
//
// The producer (the caller's goroutine) takes one of Config.StreamWindow
// slots, reads a stripe of chunks from r, hashes it, places it and fills
// it (the byte work, unlocked), then feeds the stripe's shards one by
// one to a flat pool of Config.Parallelism put workers shared by every
// stripe in flight. A worker ships its shard with per-shard failover;
// whoever lands a stripe's last shard returns its pooled buffers and its
// slot. So the window bounds the stripes — the payload memory — in
// flight, whatever the file's size, and the parallelism bounds this
// upload's puts in flight, whatever the window: one slow provider delays
// only this upload, and a reader beside it competes with at most
// Parallelism puts. Window 1 is strict lockstep (place, ship, place,
// ship) and parallelism 1 issues the puts in stripe order, which
// deterministic harnesses use.
//
// A put that fails latches the pipeline (putGate): until it lands or
// gives up, no stripe is planned and no other put started. Once anything
// fails for good — the reader, a placement, a shard out of providers —
// no further stripe is read and no further put issued (puts already on
// the wire run to their end), and the one abort path withdraws the
// staging and reservation and rolls back every blob that was stored: a
// failed upload leaves no orphan blobs and no partial file. Otherwise the
// staged rows are rebased onto the live tables and applied as one upload
// record, logged before anything becomes visible.
func (d *Distributor) upload(client, password, filename string, r io.Reader, pl privacy.Level, opts UploadOptions) (FileInfo, error) {
	u, err := d.openUpload(client, password, filename, pl, opts)
	if err != nil {
		return FileInfo{}, err
	}

	type queued struct {
		job *stripeJob
		i   int
	}
	window := make(chan struct{}, d.streamWindow)
	// Sized to the sends the window admits — its stripes' shards — so the
	// producer moves on to planning the next stripe instead of waiting
	// for a put worker to take each shard from its hand.
	shardCh := make(chan queued, d.streamWindow*(u.width*(1+opts.Replicas)+u.level.ParityShards()))
	var g putGate
	stored := make([][]storedShard, d.parallelism) // by worker
	var wg sync.WaitGroup
	for w := range stored {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ref := range shardCh {
				if g.enter() {
					at, err := d.shipShard(&ref.job.stripeRows, ref.job.shards[ref.i], nil, &g)
					if err == nil {
						stored[w] = append(stored[w], at)
					}
					g.leave(err)
				}
				if ref.job.unshipped.Add(-1) == 0 {
					ref.job.releaseBuffers()
					<-window
				}
			}
		}()
	}

	var jobs []*stripeJob
	total, serial := 0, 0
	for eof := false; !eof; {
		window <- struct{}{}
		if !g.enter() {
			<-window
			break
		}
		job, n, err := d.planStripe(u, r, serial)
		if eof = err == io.EOF; eof {
			err = nil
		}
		g.leave(err)
		if job == nil {
			<-window
			break
		}
		total += n
		serial += len(job.chunks)
		jobs = append(jobs, job)
		for i := range job.shards {
			shardCh <- queued{job, i}
		}
	}
	close(shardCh)
	wg.Wait()

	if failure := g.failure.Load(); failure != nil {
		err = *failure
	} else {
		newChunks, newStripes, chunkIdx := assembleStripes(jobs, serial)
		d.mu.Lock()
		err = d.commitUploadLocked(u, newChunks, newStripes, chunkIdx)
		d.mu.Unlock()
	}
	if err != nil {
		d.abortUpload(u, slices.Concat(stored...))
		return FileInfo{}, fmt.Errorf("core: upload aborted: %w", err)
	}
	return FileInfo{Filename: filename, PL: pl, Chunks: serial, Raid: u.level, Bytes: total}, nil
}

// putGate is what an upload's producer and put workers share: the first
// failure, and the latch that holds the pipeline still while a put
// fails. The producer planning a stripe and each worker putting a shard
// hold the latch's read lock, from enter to leave. A put whose attempt
// fails trades its read lock for the write lock at once (putLatch.take):
// no one enters from then on, and the put goes on once every other
// holder has left, so its retries and failover run with no stripe being
// placed and no other put on the wire. A put that lands gives the write
// lock back; one that gives up records the failure first, which every
// later enter refuses.
type putGate struct {
	latch   sync.RWMutex
	failure atomic.Pointer[error] // the first one; set, it stops the producer and the workers
}

// enter takes the latch's read lock unless the upload has failed; false
// means the caller does nothing and does not leave.
func (g *putGate) enter() bool {
	g.latch.RLock()
	if g.failure.Load() != nil {
		g.latch.RUnlock()
		return false
	}
	return true
}

// leave ends what enter began; err is what failed, if anything.
func (g *putGate) leave(err error) {
	g.fail(err)
	g.latch.RUnlock()
}

// fail records err unless it is nil or an earlier failure is recorded.
func (g *putGate) fail(err error) {
	if err != nil {
		g.failure.CompareAndSwap(nil, &err)
	}
}

// A putLatch is one put's hold on its upload's gate, taken at the put's
// first failed attempt and released when the put lands or gives up.
type putLatch struct {
	g    *putGate
	held bool
}

// take trades the put's read lock for the write lock, once per put; a
// nil gate (a write that is not an upload) latches nothing.
func (l *putLatch) take() {
	if l.g != nil && !l.held {
		l.held = true
		l.g.latch.RUnlock()
		l.g.latch.Lock()
	}
}

// release gives the write lock back and makes the put a reader again
// until its leave; err, when the put gave up, is recorded first.
func (l *putLatch) release(err error) {
	if l.held {
		l.g.fail(err)
		l.g.latch.Unlock()
		l.g.latch.RLock()
	}
}
