package core

import (
	"fmt"

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
// encryption, line decoys or byte decoys per opts. The mislead RNG and
// the encryption nonce are d.mu-guarded, so callers hold d.mu. Byte
// decoys inflate into a bufpool buffer, which is appended to *pooled:
// the caller owns that list and returns its buffers once the payload
// has shipped (providers copy on Put). Without decoys or a key the
// payload aliases data.
func (d *Distributor) preparePayload(data []byte, encKey []byte, opts UploadOptions, pooled *[][]byte) ([]byte, mislead.Injection, error) {
	switch {
	case encKey != nil:
		payload, err := cryptofrag.Encrypt(encKey, data, d.nextEncNonce())
		return payload, mislead.Injection{}, err
	case len(opts.MisleadLines) > 0:
		return mislead.InjectLines(data, opts.MisleadLines, d.misleadRNG)
	case opts.MisleadFraction > 0:
		buf := bufpool.Get(mislead.InflatedLen(len(data), opts.MisleadFraction))
		*pooled = append(*pooled, buf)
		return mislead.InjectTo(buf[:0], data, opts.MisleadFraction, d.misleadRNG)
	}
	return data, mislead.Injection{}, nil
}

// Upload receives a file from a client, fragments it according to the
// file's privacy level, optionally injects misleading bytes, stripes the
// chunks with RAID parity and scatters everything over the provider
// fleet. It returns the chunk count the client later uses to request
// chunks by (filename, serial).
//
// The write runs in three phases. Plan (under d.mu): validate, chunk,
// build payloads, place shards and allocate virtual ids into staged
// tables that reference nothing live; the filename is reserved so a
// concurrent identical upload fails fast with ErrExists. Ship (no lock):
// every shard goes out with bounded fan-out and per-shard failover; one
// slow provider delays only this upload, not other clients. Commit
// (under d.mu): staged rows are rebased onto the live tables and the
// provider counts folded in atomically — or, on a failed ship, the
// staging is withdrawn and stored blobs rolled back, leaving no trace.
func (d *Distributor) Upload(client, password, filename string, data []byte, pl privacy.Level, opts UploadOptions) (FileInfo, error) {
	level, err := d.validateUpload(filename, pl, opts)
	if err != nil {
		return FileInfo{}, err
	}

	// ---- Plan: stage everything under the lock, mutate nothing live ----
	resKey := client + "\x00" + filename
	d.mu.Lock()
	c, err := d.authorize(client, password, pl)
	if err != nil {
		d.mu.Unlock()
		return FileInfo{}, err
	}
	if _, dup := c.Files[filename]; dup || d.reserved[resKey] {
		d.mu.Unlock()
		return FileInfo{}, fmt.Errorf("%w: %s", ErrExists, filename)
	}
	d.reserved[resKey] = true
	t := d.newTicketLocked()
	// abortLocked undoes the reservation and staging; used by every error
	// path once the ticket is open. Callers hold d.mu.
	abortLocked := func() {
		d.releaseTicketLocked(t)
		delete(d.reserved, resKey)
	}

	chunks, err := chunker.Split(data, pl, d.policy)
	if err != nil {
		abortLocked()
		d.mu.Unlock()
		return FileInfo{}, err
	}
	// Every pooled buffer this upload draws (chunk splits, stripe padding,
	// parity) is dead once the function returns: providers copy payloads on
	// Put and the committed tables hold only metadata, so the deferred
	// release cannot race anything live.
	pooled := make([][]byte, 0, len(chunks))
	defer func() {
		for _, b := range pooled {
			bufpool.Put(b)
		}
	}()
	for _, ch := range chunks {
		pooled = append(pooled, ch.Data)
	}

	// Prepare payloads (with optional misleading data) per chunk. This
	// stays in the plan phase: the mislead RNG and the encryption nonce
	// are d.mu-guarded.
	type prepared struct {
		payload []byte
		inj     mislead.Injection
		sum     [32]byte
		dataLen int
	}
	var encKey []byte
	if len(opts.EncryptKey) > 0 {
		encKey = append([]byte(nil), opts.EncryptKey...)
	}
	prep := make([]prepared, len(chunks))
	for i, ch := range chunks {
		payload, inj, perr := d.preparePayload(ch.Data, encKey, opts, &pooled)
		if perr != nil {
			abortLocked()
			d.mu.Unlock()
			return FileInfo{}, perr
		}
		prep[i] = prepared{payload: payload, inj: inj, sum: ch.Sum, dataLen: len(ch.Data)}
	}

	parity := level.ParityShards()
	width, err := d.effectiveWidth(pl, parity)
	if err != nil {
		abortLocked()
		d.mu.Unlock()
		return FileInfo{}, err
	}

	d.fidSeq++
	fe := &fileEntry{Filename: filename, PL: pl, FID: d.fidSeq, Raid: level, ChunkIdx: make([]int, len(chunks))}

	// Staged rows use positions relative to the staged slices — the live
	// table lengths can change while the ship phase runs, so absolute
	// indices only exist at commit, when everything is rebased at once.
	var shards []stagedShard
	newChunks := make([]chunkEntry, 0, len(chunks))
	newStripes := make([]stripeEntry, 0, (len(chunks)+width-1)/width)

	for start := 0; start < len(prep); start += width {
		end := start + width
		if end > len(prep) {
			end = len(prep)
		}
		group := prep[start:end]
		shardLen := 0
		for _, p := range group {
			if len(p.payload) > shardLen {
				shardLen = len(p.payload)
			}
		}
		if shardLen == 0 {
			shardLen = 1 // parity over empty chunks still needs one byte
		}
		nShards := len(group) + parity
		placement, err := d.placeShards(pl, nShards)
		if err != nil {
			abortLocked()
			d.mu.Unlock()
			return FileInfo{}, err
		}

		stripePos := len(newStripes)
		st := stripeEntry{ID: stripePos, Level: level, ShardLen: shardLen}
		padded := make([][]byte, len(group))
		for gi, p := range group {
			serial := start + gi
			vid := d.vids.Next()
			provIdx := placement[gi]
			chunkPos := len(newChunks)
			ce := chunkEntry{
				VirtualID:  vid,
				PL:         pl,
				CPIndex:    provIdx,
				SPIndex:    -1,
				Mislead:    p.inj,
				Client:     client,
				Filename:   filename,
				Serial:     serial,
				PayloadLen: len(p.payload),
				DataLen:    p.dataLen,
				Sum:        p.sum,
				EncKey:     encKey,
				StripeID:   stripePos,
			}
			// Mirrors: extra full copies on providers distinct from the
			// chunk's own and from each other.
			exclude := map[int]bool{provIdx: true}
			for r := 0; r < opts.Replicas; r++ {
				mIdx, err := d.placeParityExcluding(pl, exclude)
				if err != nil {
					abortLocked()
					d.mu.Unlock()
					return FileInfo{}, fmt.Errorf("placing replica %d of chunk %d: %w", r+1, serial, err)
				}
				exclude[mIdx] = true
				mvid := d.vids.Next()
				ce.Mirrors = append(ce.Mirrors, mirrorRef{VirtualID: mvid, CPIndex: mIdx})
				shards = append(shards, stagedShard{
					kind: shardMirror, chunkPos: chunkPos, mirrorPos: r,
					stripePos: stripePos, parityPos: -1,
					provIdx: mIdx, vid: mvid, payload: p.payload,
				})
				d.stageLocked(t, mIdx, mvid)
			}

			newChunks = append(newChunks, ce)
			fe.ChunkIdx[serial] = chunkPos
			st.Members = append(st.Members, chunkPos)
			shards = append(shards, stagedShard{
				kind: shardData, chunkPos: chunkPos, mirrorPos: -1,
				stripePos: stripePos, parityPos: -1,
				provIdx: provIdx, vid: vid, payload: p.payload,
			})
			d.stageLocked(t, provIdx, vid)

			// Parity math needs equal-length shards; only payloads shorter
			// than the stripe width get a pooled, zero-padded copy.
			if len(p.payload) == shardLen {
				padded[gi] = p.payload
			} else {
				pad := bufpool.Get(shardLen)
				n := copy(pad, p.payload)
				clear(pad[n:])
				padded[gi] = pad
				pooled = append(pooled, pad)
			}
		}
		if parity > 0 {
			parityBufs := make([][]byte, parity)
			for pi := range parityBufs {
				parityBufs[pi] = bufpool.Get(shardLen)
				pooled = append(pooled, parityBufs[pi])
			}
			if err := raid.ParityInto(level, padded, parityBufs); err != nil {
				abortLocked()
				d.mu.Unlock()
				return FileInfo{}, err
			}
			for pi := 0; pi < parity; pi++ {
				vid := d.vids.Next()
				provIdx := placement[len(group)+pi]
				st.Parity = append(st.Parity, parityShard{VirtualID: vid, CPIndex: provIdx})
				shards = append(shards, stagedShard{
					kind: shardParity, chunkPos: -1, mirrorPos: -1,
					stripePos: stripePos, parityPos: pi,
					provIdx: provIdx, vid: vid, payload: parityBufs[pi],
				})
				d.stageLocked(t, provIdx, vid)
			}
		}
		newStripes = append(newStripes, st)
	}
	d.mu.Unlock()

	// ---- Ship: all provider puts happen without the lock ----
	// shipStaged fails individual shards over to other healthy providers;
	// if a shard runs out of providers, everything already stored is
	// rolled back here, so a failed upload leaves no orphan blobs.
	stored, err := d.shipStaged(pl, shards, newChunks, newStripes, t)
	if err != nil {
		d.mu.Lock()
		abortLocked()
		d.mu.Unlock()
		d.rollbackStored(stored)
		return FileInfo{}, fmt.Errorf("core: upload aborted: %w", err)
	}

	// ---- Commit: rebase staged rows onto the live tables atomically ----
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
	for serial := range fe.ChunkIdx {
		fe.ChunkIdx[serial] += base
	}
	// Durability point: the commit record must be on the log before the
	// rows become visible. A failed append aborts like a failed ship —
	// staging withdrawn, stored blobs rolled back, no trace.
	rec := &walRecord{
		Op: "upload", Client: client, Filename: filename,
		FID: fe.FID, PL: pl, Raid: level,
		ChunksBase: base, StripesBase: sbase,
		Chunks: newChunks, Stripes: newStripes, ChunkIdx: fe.ChunkIdx,
		FileGen: fe.Gen, ClientGen: c.Gen + 1, Gen: d.gen + 1,
	}
	if err := d.logAppendLocked(rec); err != nil {
		abortLocked()
		d.mu.Unlock()
		d.rollbackStored(stored)
		return FileInfo{}, fmt.Errorf("core: upload aborted: %w", err)
	}
	d.chunks = append(d.chunks, newChunks...)
	d.stripes = append(d.stripes, newStripes...)
	d.commitTicketLocked(t)
	delete(d.reserved, resKey)
	c.Files[filename] = fe
	c.Count += len(chunks)
	c.Gen++
	d.gen++
	d.counters.uploads.Add(1)
	d.maybeCheckpointLocked()
	d.mu.Unlock()

	return FileInfo{Filename: filename, PL: pl, Chunks: len(chunks), Raid: level, Bytes: len(data)}, nil
}
