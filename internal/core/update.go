package core

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"repro/internal/cryptofrag"
	"repro/internal/mislead"
	"repro/internal/provider"
)

// UpdateChunk replaces one chunk's contents. Before the modification the
// chunk's previous state is copied to a snapshot provider: "snapshot
// provider stores the pre-state and cloud provider stores the post-state
// of a chunk after each modification" (paper §IV-A, Chunk Table).
// The stripe's parity is re-encoded over the new contents.
//
// The write runs in three phases. Plan (under d.mu): validate, reserve
// the nonce, and take two copies of the stripe's rows — the stripe as it
// stands, which the pre-state and the siblings are read through, and the
// new generation, in which every blob the update will produce is staged
// as a slot: snapshot, post-state, mirrors and parity all get new ids, so
// nothing stored for the old generation is overwritten or deleted until
// the new generation is fully durable. Ship (no lock): build the new
// payload (encrypted, or with fresh decoys from this write's own stream),
// read the pre-state and siblings, re-encode parity, then write every new
// blob through shipShard, snapshot first, which patches the new rows
// wherever a failover lands. Any failure aborts with the tables
// untouched: the chunk row, provider counts and the previous snapshot all
// keep serving. Commit (under d.mu): re-check the file's generation — a
// concurrent mutation means ErrConflict and a rollback of the new blobs —
// then commit one update record that swaps every row field at once, and
// retire the superseded blobs.
//
// An update never strips a chunk's defence. opts that ask for no decoys
// leave a chunk that carries some defended at its own overhead (decoy
// bytes per data byte, at most 1) with fresh byte decoys from this
// write's stream. The row keeps decoy positions, not where they came
// from, so that holds for a chunk uploaded with MisleadLines too: the
// distributor does not keep a client's decoy records, and a caller who
// wants lines in the new generation passes them again. A pre-state that
// carries decoys gets no snapshot — see GetSnapshot.
func (d *Distributor) UpdateChunk(client, password, filename string, serial int, newData []byte, opts UploadOptions) error {
	if opts.MisleadFraction < 0 || opts.MisleadFraction >= 1 {
		return fmt.Errorf("%w: mislead fraction %v outside [0,1)", ErrConfig, opts.MisleadFraction)
	}

	// ---- Plan ----
	d.mu.Lock()
	entry, err := d.lookupChunk(client, password, filename, serial)
	if err = d.writeCheckLocked(err); err != nil {
		d.mu.Unlock()
		return err
	}
	fe := d.clients[client].Files[filename]
	fileGen := fe.Gen

	// Encrypted files stay encrypted; otherwise a fresh mislead injection
	// if requested.
	if entry.EncKey != nil && (opts.MisleadFraction > 0 || len(opts.MisleadLines) > 0) {
		d.mu.Unlock()
		return fmt.Errorf("%w: misleading data and encryption are mutually exclusive", ErrConfig)
	}
	var nonce uint64
	if entry.EncKey != nil {
		nonce = d.reserveNoncesLocked(1)
	}

	// pre is the stripe as it stands: the row being replaced, and every
	// sibling, read through it while parity is still consistent with the
	// members — read after the post-state write, an unreachable sibling
	// would be "reconstructed" through stale parity.
	st := &d.stripes[entry.StripeID]
	stripeID := entry.StripeID
	self := slices.Index(st.Members, fe.ChunkIdx[serial])
	pl := entry.PL
	pre := d.stripeRowsLocked(st, -1, pl, nil)
	old, level := &pre.chunks[self], st.Level
	// Asked for no decoys, a defended chunk keeps its own rate of them.
	if opts.MisleadFraction == 0 && len(opts.MisleadLines) == 0 {
		opts.MisleadFraction = min(mislead.Overhead(old.DataLen, old.Mislead), 1)
	}

	// The new generation is the stripe's rows with this chunk's blobs and
	// the parity rewritten: a snapshot placed away from the chunk, then
	// fresh virtual ids for the post-state, mirrors and parity where they
	// are — even a blob that stays on its provider gets a new id, because
	// the old blob must survive untouched until commit.
	t := d.newTicketLocked()
	rows := d.stripeRowsLocked(st, -1, pl, t)
	row := &rows.chunks[self]
	row.SPIndex, row.SnapVID = -1, ""
	var shards []stagedShard
	if len(old.Mislead.Encoded()) == 0 {
		row.SnapVID = d.vids.Next()
		snap := shardSlot{kind: BlobSnapshot, idx: self}
		if err := d.homeLocked(rows, snap, nil); err != nil {
			d.releaseTicketLocked(t)
			d.mu.Unlock()
			return err
		}
		shards = append(shards, stagedShard{slot: snap})
	}
	renew := len(shards)
	shards = append(shards, stagedShard{slot: shardSlot{kind: BlobChunk, idx: self}})
	for mi := range row.Mirrors {
		shards = append(shards, stagedShard{slot: shardSlot{kind: BlobMirror, idx: self, sub: mi}})
	}
	for pi := range rows.stripes[0].Parity {
		shards = append(shards, stagedShard{slot: shardSlot{kind: BlobParity, sub: pi}})
	}
	for _, s := range shards[renew:] {
		prov, vid, _ := rows.cell(s.slot)
		*vid = d.vids.Next()
		d.stageLocked(t, *prov, *vid)
	}
	d.mu.Unlock()

	// ---- Ship: payload bytes and provider I/O, all without the lock ----
	// Pooled scratch — the inflated payload here, padding and parity
	// further down. Providers copy on Put, so everything drawn is dead
	// once this call returns.
	var pooled [][]byte
	defer func() { releaseBuffers(pooled) }()
	var stored []storedShard
	abort := func(err error) error {
		d.rollbackStored(stored)
		d.releaseTicket(t)
		return err
	}

	payload, inj, err := preparePayload(newData, old.EncKey, opts, nonce, d.decoyRNG(opts, fe.FID, serial, fileGen+1), &pooled)
	if err != nil {
		return abort(err)
	}
	sum := sha256.Sum256(newData)
	d.byteWork("prepare")

	// Re-encode parity from the siblings plus the new payload — never
	// re-reading members through a now-inconsistent stripe.
	shardLen := 0
	var parityBufs [][]byte
	if level.ParityShards() > 0 {
		sibPayloads, err := d.fetchMembers(pre, self)
		if err != nil {
			return abort(err)
		}
		payloads := slices.Insert(sibPayloads, self, payload)
		shardLen = stripeShardLen(payloads)
		if parityBufs, err = d.encodeParity(level, payloads, shardLen, &pooled); err != nil {
			return abort(err)
		}
	}
	for i := range shards {
		switch s := &shards[i]; s.slot.kind {
		case BlobSnapshot:
			res, err := d.readMember(pre, self)
			if err != nil {
				return abort(fmt.Errorf("core: reading pre-state: %w", err))
			}
			s.payload = res.payload
		case BlobParity:
			s.payload = parityBufs[s.slot.sub]
		default:
			s.payload = payload
		}
	}

	// Snapshot first: the pre-state must be durable somewhere new before
	// anything else is worth writing.
	if err := d.shipEach(rows, shards, &stored); err != nil {
		return abort(err)
	}

	// ---- Commit: swap the row atomically, or detect a lost race ----
	d.mu.Lock()
	if d.fileChangedLocked(client, filename, fe, fileGen) {
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.rollbackStored(stored)
		return fmt.Errorf("%w: %s#%d changed during update", ErrConflict, filename, serial)
	}
	newEntry := *row
	newEntry.Mislead = inj
	newEntry.PayloadLen = len(payload)
	newEntry.DataLen = len(newData)
	newEntry.Sum = sum
	rec := &walRecord{
		Op: "update", Client: client, Filename: filename, Serial: serial,
		StripeID: stripeID, Chunk: newEntry, Parity: rows.stripes[0].Parity, ShardLen: shardLen,
		FileGen: fileGen + 1, Gen: d.gen + 1,
	}
	if err := d.commitLocked(rec, t); err != nil {
		d.mu.Unlock()
		d.rollbackStored(stored)
		return fmt.Errorf("core: update aborted: %w", err)
	}
	// Drop the superseded generation's cached bytes eagerly. The key uses
	// fileGen (the generation this update planned against — the one
	// readers of the old bytes inserted under); entries under even older
	// generations are already unreachable and age out.
	d.cache.remove(cacheKey{fid: fe.FID, serial: serial, gen: fileGen})
	d.counters.updates.Add(1)
	d.mu.Unlock()

	// Retire the superseded generation — primary, mirrors, the snapshot
	// before this one, parity — best-effort: every blob is unreferenced by
	// the committed tables, so a failed delete is later detectable as a VID
	// orphan.
	d.deleteBlobs(parityBlobs(blobsOf(nil, old), pre.stripes[0].Parity))
	return nil
}

// GetSnapshot returns a chunk's pre-modification contents. Misleading
// bytes of the snapshot generation cannot be stripped (the paper's Chunk
// Table keeps only the current M set), so snapshots are only offered for
// chunks that had no injection at snapshot time: UpdateChunk keeps no
// copy of a pre-state that carries decoys, and the request is answered
// ErrNoSnapshot. An encrypted file's snapshot is sealed under the file's
// key like every generation of the chunk, and is opened with it here.
func (d *Distributor) GetSnapshot(client, password, filename string, serial int) ([]byte, error) {
	s, err := d.openRead(client, password, filename, readSpan{one: true, serial: serial})
	if err != nil {
		return nil, err
	}
	entry := s.reads[0].entry()
	if entry.SnapVID == "" || entry.SPIndex < 0 {
		return nil, fmt.Errorf("%w: %s#%d", ErrNoSnapshot, filename, serial)
	}
	// Fetch outside the lock; the outcome still feeds health accounting.
	var payload []byte
	err = d.providerOp(entry.SPIndex, func(p provider.Provider) error {
		var e error
		payload, e = p.Get(entry.SnapVID)
		return e
	})
	if err != nil {
		return nil, err
	}
	if entry.EncKey != nil {
		return cryptofrag.Decrypt(entry.EncKey, payload)
	}
	return payload, nil
}
