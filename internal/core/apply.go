package core

import (
	"fmt"
	"strings"

	"repro/internal/privacy"
)

// This file is the one writer of the distributor's tables. A mutation —
// on a primary, on a follower fed by replication, or replayed by a
// recovery — changes d.clients, d.chunks, d.stripes and d.provCount only
// by applying a walRecord here (or by installing a whole decoded state),
// so the three can never drift apart. The `tables` rule in
// internal/archcheck holds the line.

// commitLocked is how every live mutation ends: the record goes on the
// log, then the same applyWALRecord a follower and a recovery run edits
// the tables, then the ticket's staging is withdrawn — its blobs are
// table-referenced and counted now — and a due checkpoint is taken. The
// caller holds d.mu and has already checked the generations it planned
// against; everything live-only (reservations, cache eviction, op
// counters, retiring superseded blobs) stays with it.
// t may be nil; it is released on every path. On an append failure — or
// on a follower, which answers ErrUnavailable — the tables are untouched
// and the caller rolls its blobs back.
func (d *Distributor) commitLocked(rec *walRecord, t *writeTicket) error {
	err := errFollower
	if !d.following {
		err = d.logAppendLocked(rec)
	}
	if err == nil {
		if err = d.applyWALRecord(rec); err != nil {
			// A record that is on the log but does not apply is a bug in
			// the code that built it, and a recovery will refuse it too:
			// stop taking commits rather than serve tables the log
			// disagrees with.
			d.closed = true
			err = fmt.Errorf("core: logged %s record does not apply, distributor closed: %w", rec.Op, err)
		}
	}
	d.releaseTicketLocked(t)
	if err == nil {
		d.maybeCheckpointLocked()
	}
	return err
}

// logAppendLocked fills rec's allocator watermarks and appends it to the
// WAL, honoring the sync policy; the WAL is also what followers read. A
// nil WAL (plain in-memory distributor) is a no-op. commitLocked is its
// only caller.
func (d *Distributor) logAppendLocked(rec *walRecord) error {
	if d.wal == nil {
		return nil
	}
	if d.closed {
		return errClosed
	}
	rec.FIDSeq = d.fidSeq
	rec.EncNonce = d.encNonce
	if prf, ok := d.vids.(*prfAllocator); ok {
		rec.VIDCtr = prf.ctr
	}
	if err := d.wal.Append(encodeWALRecord(rec)); err != nil {
		return fmt.Errorf("core: wal append: %w", err)
	}
	return nil
}

// stateLocked is the full committed state — what a checkpoint persists
// and a snapshot sync ships. It aliases the live tables: encode it before
// releasing d.mu.
func (d *Distributor) stateLocked() *walState {
	st := &walState{
		Clients:  d.clients,
		Chunks:   d.chunks,
		Stripes:  d.stripes,
		Gen:      d.gen,
		FIDSeq:   d.fidSeq,
		EncNonce: d.encNonce,
	}
	if prf, ok := d.vids.(*prfAllocator); ok {
		st.VIDCtr = prf.ctr
	}
	return st
}

// installState replaces the tables with a decoded state. The generation
// is the state's; the allocator watermarks only ever advance — a replica
// must never re-issue a nonce or id its primary already consumed.
func (d *Distributor) installState(st *walState) {
	if st.Clients == nil {
		st.Clients = map[string]*clientEntry{}
	}
	d.clients = st.Clients
	d.chunks = st.Chunks
	// A checkpoint written before tombstones were stripped carries removed
	// rows in full, encryption keys included; drop that on the way in.
	for i := range d.chunks {
		if d.chunks[i].CPIndex < 0 {
			d.chunks[i].tombstone()
		}
	}
	d.stripes = st.Stripes
	d.gen = st.Gen
	d.advanceWatermarks(st.FIDSeq, st.EncNonce, st.VIDCtr)
}

// installCountedState is installState for a distributor that is already
// serving: the state's placements are checked against the fleet before
// anything is replaced, and the provider counts come with the tables.
func (d *Distributor) installCountedState(st *walState) error {
	counts, err := tallyPlacements(st.Chunks, st.Stripes, d.fleet.Len())
	if err != nil {
		return err
	}
	d.installState(st)
	d.provCount = counts
	return nil
}

// advanceWatermarks raises the allocator counters to at least the given
// values. Custom vid allocators (scripted, test fakes) carry no counter.
func (d *Distributor) advanceWatermarks(fidSeq, encNonce, vidCtr uint64) {
	d.fidSeq = max(d.fidSeq, fidSeq)
	d.encNonce = max(d.encNonce, encNonce)
	if prf, ok := d.vids.(*prfAllocator); ok {
		prf.ctr = max(prf.ctr, vidCtr)
	}
}

// eachBlob calls fn for every provider blob a chunk row references —
// the primary copy, the mirrors, then the pre-update snapshot if there
// is one — and for nothing on a removed row. Every count, delete list,
// audit set and view of "a chunk's blobs" goes through here, so they
// agree on what a row holds.
func (e *chunkEntry) eachBlob(fn func(kind BlobKind, at storedShard)) {
	if e.CPIndex < 0 {
		return
	}
	fn(BlobChunk, storedShard{e.CPIndex, e.VirtualID})
	for _, m := range e.Mirrors {
		fn(BlobMirror, storedShard{m.CPIndex, m.VirtualID})
	}
	if e.SnapVID != "" && e.SPIndex >= 0 {
		fn(BlobSnapshot, storedShard{e.SPIndex, e.SnapVID})
	}
}

// blobsOf collects eachBlob's blobs of e, in its order, onto dst.
func blobsOf(dst []storedShard, e *chunkEntry) []storedShard {
	e.eachBlob(func(_ BlobKind, at storedShard) { dst = append(dst, at) })
	return dst
}

// parityBlobs appends a parity list's blobs onto dst.
func parityBlobs(dst []storedShard, ps []parityShard) []storedShard {
	for _, p := range ps {
		dst = append(dst, storedShard{p.CPIndex, p.VirtualID})
	}
	return dst
}

// shardSlot names one (provider, virtual id) cell of a stripe's rows: a
// chunk's primary copy, one of its mirrors, its snapshot, or one parity
// shard of a stripe. It is what every write addresses its blobs by — an
// upload, update or re-encode in its private rows (stripeRows), a
// relocation in the live tables and on the log (move_<kind> records carry
// idx and sub as TableIdx and SubIdx).
type shardSlot struct {
	kind BlobKind
	idx  int // chunk-table index; stripe index for BlobParity
	sub  int // mirror or parity position; 0 otherwise
}

// cell resolves s over the live tables, for reading (a relocation
// checking what the slot holds) and — in applyMove only — for writing.
func (d *Distributor) cell(s shardSlot) (prov *int, vid *string, err error) {
	return cell(d.chunks, d.stripes, s)
}

// cell resolves s to the cell it names in a pair of rows. An index
// outside the rows or a removed chunk row is an error.
func cell(chunks []chunkEntry, stripes []stripeEntry, s shardSlot) (prov *int, vid *string, err error) {
	if s.kind == BlobParity {
		if s.idx < 0 || s.idx >= len(stripes) {
			return nil, nil, fmt.Errorf("stripe %d out of range", s.idx)
		}
		ps := stripes[s.idx].Parity
		if s.sub < 0 || s.sub >= len(ps) {
			return nil, nil, fmt.Errorf("parity %d of stripe %d out of range", s.sub, s.idx)
		}
		return &ps[s.sub].CPIndex, &ps[s.sub].VirtualID, nil
	}
	if s.idx < 0 || s.idx >= len(chunks) {
		return nil, nil, fmt.Errorf("chunk %d out of range", s.idx)
	}
	e := &chunks[s.idx]
	if e.CPIndex < 0 {
		return nil, nil, fmt.Errorf("chunk %d was removed", s.idx)
	}
	switch s.kind {
	case BlobChunk:
		return &e.CPIndex, &e.VirtualID, nil
	case BlobMirror:
		if s.sub < 0 || s.sub >= len(e.Mirrors) {
			return nil, nil, fmt.Errorf("mirror %d of chunk %d out of range", s.sub, s.idx)
		}
		return &e.Mirrors[s.sub].CPIndex, &e.Mirrors[s.sub].VirtualID, nil
	case BlobSnapshot:
		return &e.SPIndex, &e.SnapVID, nil
	}
	return nil, nil, fmt.Errorf("unknown slot kind %q", s.kind)
}

// applyWALRecord is the state transition of one commit: what a primary's
// commitLocked, a follower's applyReplicated and a recovery's replay all
// run. It validates every reference before its first write — this is
// the one place a corrupt-but-CRC-valid or out-of-order record could
// silently poison the tables, so a mismatch is an error that leaves them
// untouched, never a best-effort patch. It edits clients/chunks/stripes,
// the generations and watermarks, and the per-provider counts
// (incrementally, so no commit pays an O(table) recompute; recovery still
// recomputes them wholesale afterwards, which is what lets the bump
// helpers no-op when no fleet is attached). It must touch nothing else —
// no fleet, no cache, no tickets: ValidateWALDir runs it on a bare struct.
// The cache is generation-keyed, so a follower's stale entries miss.
func (d *Distributor) applyWALRecord(rec *walRecord) error {
	switch rec.Op {
	case "register":
		if _, ok := d.clients[rec.Client]; ok {
			return fmt.Errorf("client %q already exists", rec.Client)
		}
		d.clients[rec.Client] = &clientEntry{
			Name:      rec.Client,
			Passwords: make(map[string]privacy.Level),
			Files:     make(map[string]*fileEntry),
		}

	case "passwd":
		c, ok := d.clients[rec.Client]
		if !ok {
			return fmt.Errorf("client %q not registered", rec.Client)
		}
		c.Passwords[rec.PassHash] = rec.PassPL

	case "upload":
		c, ok := d.clients[rec.Client]
		if !ok {
			return fmt.Errorf("client %q not registered", rec.Client)
		}
		if rec.ChunksBase != len(d.chunks) || rec.StripesBase != len(d.stripes) {
			return fmt.Errorf("upload of %q rebased at chunk %d / stripe %d but tables hold %d / %d",
				rec.Filename, rec.ChunksBase, rec.StripesBase, len(d.chunks), len(d.stripes))
		}
		if _, dup := c.Files[rec.Filename]; dup {
			return fmt.Errorf("file %q already exists", rec.Filename)
		}
		d.chunks = append(d.chunks, rec.Chunks...)
		d.stripes = append(d.stripes, rec.Stripes...)
		for i := range rec.Chunks {
			d.bumpChunkProvLocked(&rec.Chunks[i], 1)
		}
		for i := range rec.Stripes {
			d.bumpParityProvLocked(rec.Stripes[i].Parity, 1)
		}
		c.Files[rec.Filename] = &fileEntry{
			Filename: rec.Filename,
			PL:       rec.PL,
			FID:      rec.FID,
			Raid:     rec.Raid,
			ChunkIdx: rec.ChunkIdx,
			Gen:      rec.FileGen,
		}
		c.Count += len(rec.ChunkIdx)
		c.Gen = rec.ClientGen

	case "update":
		fe, e, st, err := d.replayChunk(rec)
		if err != nil {
			return err
		}
		d.bumpChunkProvLocked(e, -1)
		d.bumpParityProvLocked(st.Parity, -1)
		*e = rec.Chunk
		d.bumpChunkProvLocked(e, 1)
		st.Parity = rec.Parity
		d.bumpParityProvLocked(rec.Parity, 1)
		if rec.ShardLen > 0 {
			st.ShardLen = rec.ShardLen
		}
		fe.Gen = rec.FileGen

	case "remove_file":
		fe, err := d.replayFile(rec)
		if err != nil {
			return err
		}
		c := d.clients[rec.Client]
		for _, idx := range fe.ChunkIdx {
			if idx >= len(d.chunks) {
				return fmt.Errorf("chunk %d out of range", idx)
			}
			if idx < 0 {
				continue
			}
			if sid := d.chunks[idx].StripeID; sid < 0 || sid >= len(d.stripes) {
				return fmt.Errorf("stripe %d of chunk %d out of range", sid, idx)
			}
		}
		for _, idx := range fe.ChunkIdx {
			if idx < 0 {
				continue
			}
			e := &d.chunks[idx]
			d.bumpChunkProvLocked(e, -1)
			// The first chunk of a stripe takes the stripe's parity with it.
			st := &d.stripes[e.StripeID]
			d.bumpParityProvLocked(st.Parity, -1)
			st.Parity = nil
			st.Members = nil
			e.tombstone()
			c.Count--
		}
		delete(c.Files, rec.Filename)
		fe.Gen = rec.FileGen // anyone still holding fe sees it moved
		c.Gen = rec.ClientGen

	case "remove_chunk":
		fe, e, st, err := d.replayChunk(rec)
		if err != nil {
			return err
		}
		d.bumpParityProvLocked(st.Parity, -1)
		st.Members = rec.Members
		st.ShardLen = rec.ShardLen
		st.Parity = rec.Parity
		d.bumpParityProvLocked(rec.Parity, 1)
		d.bumpChunkProvLocked(e, -1)
		e.tombstone()
		fe.ChunkIdx[rec.Serial] = -1
		d.clients[rec.Client].Count--
		fe.Gen = rec.FileGen

	case "move_chunk", "move_mirror", "move_snapshot", "move_parity", "drop_snapshot":
		if err := d.applyMove(rec); err != nil {
			return err
		}

	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}

	d.gen = rec.Gen
	d.advanceWatermarks(rec.FIDSeq, rec.EncNonce, rec.VIDCtr)
	return nil
}

// applyMove points one slot at its relocated copy (a decommission's
// move_<kind> record), or at nothing (drop_snapshot: the snapshot was
// unreadable and its reference is dropped).
func (d *Distributor) applyMove(rec *walRecord) error {
	fe, err := d.replayFile(rec)
	if err != nil {
		return err
	}
	kind, _ := strings.CutPrefix(rec.Op, "move_")
	s := shardSlot{kind: BlobKind(kind), idx: rec.TableIdx, sub: rec.SubIdx}
	newProv, newVID := rec.NewProv, rec.NewVID
	if rec.Op == "drop_snapshot" {
		s.kind, newProv, newVID = BlobSnapshot, -1, ""
	}
	prov, vid, err := d.cell(s)
	if err != nil {
		return err
	}
	if *vid != "" {
		d.bumpProvLocked(*prov, -1)
	}
	if newVID != "" {
		d.bumpProvLocked(newProv, 1)
	}
	*prov, *vid = newProv, newVID
	fe.Gen = rec.FileGen
	return nil
}

// replayFile resolves the client+filename a record targets.
func (d *Distributor) replayFile(rec *walRecord) (*fileEntry, error) {
	c, ok := d.clients[rec.Client]
	if !ok {
		return nil, fmt.Errorf("client %q not registered", rec.Client)
	}
	fe, ok := c.Files[rec.Filename]
	if !ok {
		return nil, fmt.Errorf("file %q not found for client %q", rec.Filename, rec.Client)
	}
	return fe, nil
}

// replayChunk resolves what an update or remove_chunk record targets:
// the file, the live chunk row its serial names and the record's stripe.
func (d *Distributor) replayChunk(rec *walRecord) (*fileEntry, *chunkEntry, *stripeEntry, error) {
	fe, err := d.replayFile(rec)
	if err != nil {
		return nil, nil, nil, err
	}
	if rec.Serial < 0 || rec.Serial >= len(fe.ChunkIdx) {
		return nil, nil, nil, fmt.Errorf("serial %d out of range for %q", rec.Serial, fe.Filename)
	}
	idx := fe.ChunkIdx[rec.Serial]
	if idx < 0 || idx >= len(d.chunks) {
		return nil, nil, nil, fmt.Errorf("serial %d of %q resolves to chunk %d, table holds %d", rec.Serial, fe.Filename, idx, len(d.chunks))
	}
	if rec.StripeID < 0 || rec.StripeID >= len(d.stripes) {
		return nil, nil, nil, fmt.Errorf("stripe %d out of range", rec.StripeID)
	}
	return fe, &d.chunks[idx], &d.stripes[rec.StripeID], nil
}

// bumpProvLocked adjusts the committed per-provider count by delta.
// Recovery replay recomputes the counts wholesale after the tail is
// applied, and the offline validator (ValidateWALDir) carries no fleet
// at all, so a nil slice or out-of-range index is silently ignored here;
// recomputeProvCountLocked remains the authoritative shape check.
func (d *Distributor) bumpProvLocked(idx, delta int) {
	if idx >= 0 && idx < len(d.provCount) {
		d.provCount[idx] += delta
	}
}

// bumpChunkProvLocked adjusts provider counts for every blob of a chunk
// row.
func (d *Distributor) bumpChunkProvLocked(e *chunkEntry, delta int) {
	e.eachBlob(func(_ BlobKind, at storedShard) { d.bumpProvLocked(at.provIdx, delta) })
}

// bumpParityProvLocked adjusts provider counts for a parity shard list.
func (d *Distributor) bumpParityProvLocked(ps []parityShard, delta int) {
	for _, p := range ps {
		d.bumpProvLocked(p.CPIndex, delta)
	}
}

// tallyPlacements counts the blobs the given tables place on each of n
// providers. Doubles as the fleet-shape check: tables recorded against a
// different fleet place shards outside this one, and that must fail
// loudly on the way in instead of panicking on first read.
func tallyPlacements(chunks []chunkEntry, stripes []stripeEntry, n int) ([]int, error) {
	counts := make([]int, n)
	// tally counts one blob; false means it lies outside the fleet.
	tally := func(provIdx int) bool {
		if provIdx >= n {
			return false
		}
		if provIdx >= 0 {
			counts[provIdx]++
		}
		return true
	}
	outside := func(what string, provIdx int) error {
		return fmt.Errorf("core: %s placed on provider %d but the fleet has %d — wrong fleet for this metadata", what, provIdx, n)
	}
	var err error
	for i := range chunks {
		c := &chunks[i]
		c.eachBlob(func(kind BlobKind, at storedShard) {
			if !tally(at.provIdx) && err == nil {
				err = outside(fmt.Sprintf("%s of %s#%d", kind, c.Filename, c.Serial), at.provIdx)
			}
		})
	}
	for si := range stripes {
		for _, ps := range stripes[si].Parity {
			if !tally(ps.CPIndex) && err == nil {
				err = outside(fmt.Sprintf("parity of stripe %d", si), ps.CPIndex)
			}
		}
	}
	return counts, err
}

// recomputeProvCountLocked rebuilds the committed per-provider counts
// from the tables — the wholesale figure the incremental bumps must
// always equal.
func (d *Distributor) recomputeProvCountLocked() error {
	counts, err := tallyPlacements(d.chunks, d.stripes, d.fleet.Len())
	if err != nil {
		return err
	}
	d.provCount = counts
	return nil
}
