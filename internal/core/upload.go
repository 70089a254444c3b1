package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/bufpool"
	"repro/internal/chunker"
	"repro/internal/cryptofrag"
	"repro/internal/mislead"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// validateUpload checks the argument surface shared by Upload and
// UploadStream and resolves the effective RAID level. It reads only
// immutable configuration, so it takes no lock.
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
// encryption under nonce, line decoys or byte decoys drawn from rng, per
// opts. It is a pure function of its arguments, so every write path runs
// it without d.mu. Byte decoys inflate into a bufpool buffer, which is
// appended to *pooled: the caller owns that list and returns its buffers
// once the payload has shipped (providers copy on Put). Without decoys or
// a key the payload aliases data.
func preparePayload(data, encKey []byte, opts UploadOptions, nonce uint64, rng *rand.Rand, pooled *[][]byte) ([]byte, mislead.Injection, error) {
	switch {
	case encKey != nil:
		payload, err := cryptofrag.Encrypt(encKey, data, nonce)
		return payload, mislead.Injection{}, err
	case len(opts.MisleadLines) > 0:
		return mislead.InjectLines(data, opts.MisleadLines, rng)
	case opts.MisleadFraction > 0:
		buf := bufpool.Get(mislead.InflatedLen(len(data), opts.MisleadFraction))
		*pooled = append(*pooled, buf)
		return mislead.InjectTo(buf[:0], data, opts.MisleadFraction, rng)
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
func (d *Distributor) decoyRNG(opts UploadOptions, fid uint64, serial int, gen uint64) *rand.Rand {
	if opts.MisleadFraction == 0 && len(opts.MisleadLines) == 0 {
		return nil
	}
	var id [32]byte
	binary.LittleEndian.PutUint64(id[0:], uint64(d.misleadSeed))
	binary.LittleEndian.PutUint64(id[8:], fid)
	binary.LittleEndian.PutUint64(id[16:], uint64(serial))
	binary.LittleEndian.PutUint64(id[24:], gen)
	sum := sha256.Sum256(id[:])
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(sum[:]))))
}

// uploadCtx is what one Upload or UploadStream carries from its open
// hold to its commit.
type uploadCtx struct {
	client, filename string
	resKey           string // the filename reservation in d.reserved
	pl               privacy.Level
	level            raid.Level
	opts             UploadOptions
	encKey           []byte
	width            int // data shards per stripe
	fid              uint64
	ticket           *writeTicket
	decoys           *rand.Rand // nil when opts asks for none
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
	u := &uploadCtx{
		client: client, filename: filename, resKey: client + "\x00" + filename,
		pl: pl, level: level, opts: opts,
	}
	if len(opts.EncryptKey) > 0 {
		u.encKey = append([]byte(nil), opts.EncryptKey...)
	}
	err = func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		c, err := d.authorize(client, password, pl)
		if err != nil {
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

// stripeJob is one planned stripe of an upload: the staged shards plus
// the metadata rows they patch on failover. Positions inside a job are
// job-relative — chunkPos indexes job.chunks and stripePos is always 0 —
// because a stripe is planned before the distributor knows how many
// stripes precede it; assembleStripes puts them in file order.
type stripeJob struct {
	shards []stagedShard
	chunks []chunkEntry
	stripe [1]stripeEntry
	datas  [][]byte // the stripe's raw chunks, what fillStripe works from
	nonce  uint64   // chunk i encrypts under nonce+i
	pooled [][]byte // buffers released to bufpool once the job ships
}

func (j *stripeJob) releaseBuffers() {
	releaseBuffers(j.pooled)
	j.pooled = nil
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
// supplies those, which is safe because a job reaches a ship worker only
// after both.
func (d *Distributor) placeStripe(u *uploadCtx, datas [][]byte, sums [][32]byte, baseSerial int) (*stripeJob, error) {
	parity := u.level.ParityShards()
	job := &stripeJob{
		shards: make([]stagedShard, 0, len(datas)*(1+u.opts.Replicas)+parity),
		chunks: make([]chunkEntry, len(datas)),
		datas:  datas,
		// a hint: the chunks, an inflated or padded copy of each, the parity
		pooled: append(make([][]byte, 0, 2*len(datas)+parity), datas...),
	}
	st := &job.stripe[0]
	st.Level = u.level
	st.Members = make([]int, 0, len(datas))

	d.mu.Lock()
	defer d.mu.Unlock()
	if u.encKey != nil {
		job.nonce = d.reserveNoncesLocked(len(datas))
	}
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
		// Mirrors: extra full copies on providers distinct from the
		// chunk's own and from each other.
		var exclude map[int]bool
		if u.opts.Replicas > 0 {
			exclude = map[int]bool{provIdx: true}
		}
		for r := 0; r < u.opts.Replicas; r++ {
			mIdx, err := d.placeParityExcluding(u.pl, exclude)
			if err != nil {
				return job, fmt.Errorf("placing replica %d of chunk %d: %w", r+1, ce.Serial, err)
			}
			exclude[mIdx] = true
			mvid := d.vids.Next()
			ce.Mirrors = append(ce.Mirrors, mirrorRef{VirtualID: mvid, CPIndex: mIdx})
			job.shards = append(job.shards, stagedShard{
				kind: shardMirror, chunkPos: gi, mirrorPos: r,
				stripePos: 0, parityPos: -1,
				provIdx: mIdx, vid: mvid,
			})
			d.stageLocked(u.ticket, mIdx, mvid)
		}
		st.Members = append(st.Members, gi)
		job.shards = append(job.shards, stagedShard{
			kind: shardData, chunkPos: gi, mirrorPos: -1,
			stripePos: 0, parityPos: -1,
			provIdx: provIdx, vid: vid,
		})
		d.stageLocked(u.ticket, provIdx, vid)
	}
	for pi := 0; pi < parity; pi++ {
		vid := d.vids.Next()
		provIdx := placement[len(datas)+pi]
		st.Parity = append(st.Parity, parityShard{VirtualID: vid, CPIndex: provIdx})
		job.shards = append(job.shards, stagedShard{
			kind: shardParity, chunkPos: -1, mirrorPos: -1,
			stripePos: 0, parityPos: pi,
			provIdx: provIdx, vid: vid,
		})
		d.stageLocked(u.ticket, provIdx, vid)
	}
	return job, nil
}

// fillStripe does a placed stripe's byte work, with no lock held:
// encryption or decoy injection per chunk, then padding and parity, on
// job-local buffers. Upload places every stripe before it fills the
// first: alternating would have each placement hold — sorting, HMACs,
// map inserts — evict the kernels' working set, which costs a 4 MiB
// defended put about 7 ms.
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
	job.stripe[0].ShardLen = shardLen
	parityBufs, err := d.encodeParity(u.level, payloads, shardLen, &job.pooled)
	if err != nil {
		return err
	}
	for si := range job.shards {
		s := &job.shards[si]
		if s.kind == shardParity {
			s.payload = parityBufs[s.parityPos]
		} else {
			s.payload = payloads[s.chunkPos]
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
		st := job.stripe[0]
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
// file's privacy level, optionally injects misleading bytes, stripes the
// chunks with RAID parity and scatters everything over the provider
// fleet. It returns the chunk count the client later uses to request
// chunks by (filename, serial).
//
// The write runs in three phases, and d.mu is held only for metadata.
// Plan: openUpload's short hold, then chunk split + SHA-256 with no lock,
// then placeStripe per stripe — a short hold that places shards and
// allocates virtual ids into staged rows that reference nothing live —
// then fillStripe per stripe, the byte work, unlocked. Ship (no lock):
// every shard goes out with bounded fan-out and per-shard failover; one
// slow provider delays only this upload, not other clients. Commit
// (under d.mu): staged rows are rebased onto the live tables and applied
// as one upload record — or, on a failed ship, the
// staging is withdrawn and stored blobs rolled back, leaving no trace.
func (d *Distributor) Upload(client, password, filename string, data []byte, pl privacy.Level, opts UploadOptions) (FileInfo, error) {
	u, err := d.openUpload(client, password, filename, pl, opts)
	if err != nil {
		return FileInfo{}, err
	}
	// Every pooled buffer this upload draws (chunk splits, inflated
	// payloads, stripe padding, parity) is dead once the function returns:
	// providers copy payloads on Put and the committed tables hold only
	// metadata, so the deferred release cannot race anything live.
	var jobs []*stripeJob
	defer func() {
		for _, job := range jobs {
			job.releaseBuffers()
		}
	}()

	chunks, err := chunker.Split(data, pl, d.policy)
	if err != nil {
		d.abortUpload(u, nil)
		return FileInfo{}, err
	}
	d.byteWork("split")
	for start := 0; start < len(chunks); start += u.width {
		group := chunks[start:min(start+u.width, len(chunks))]
		datas := make([][]byte, len(group))
		sums := make([][32]byte, len(group))
		for i, ch := range group {
			datas[i], sums[i] = ch.Data, ch.Sum
		}
		job, err := d.placeStripe(u, datas, sums, start)
		jobs = append(jobs, job)
		if err != nil {
			d.abortUpload(u, nil)
			return FileInfo{}, err
		}
	}
	for _, job := range jobs {
		if err := d.fillStripe(u, job); err != nil {
			d.abortUpload(u, nil)
			return FileInfo{}, err
		}
	}

	// Ship all stripes in one bounded fan-out, so the shards are numbered
	// against the file's rows rather than their stripe's. shipStaged fails
	// individual shards over to other healthy providers; if a shard runs
	// out of providers, everything already stored is rolled back here, so
	// a failed upload leaves no orphan blobs.
	newChunks, newStripes, chunkIdx := assembleStripes(jobs, len(chunks))
	shards := make([]stagedShard, 0, len(jobs)*len(jobs[0].shards))
	cbase := 0
	for si, job := range jobs {
		for _, s := range job.shards {
			if s.chunkPos >= 0 {
				s.chunkPos += cbase
			}
			s.stripePos = si
			shards = append(shards, s)
		}
		cbase += len(job.chunks)
	}
	stored, err := d.shipStaged(pl, shards, newChunks, newStripes, u.ticket)
	if err == nil {
		d.mu.Lock()
		err = d.commitUploadLocked(u, newChunks, newStripes, chunkIdx)
		d.mu.Unlock()
	}
	if err != nil {
		d.abortUpload(u, stored)
		return FileInfo{}, fmt.Errorf("core: upload aborted: %w", err)
	}
	return FileInfo{Filename: filename, PL: pl, Chunks: len(chunks), Raid: u.level, Bytes: len(data)}, nil
}
