package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/privacy"
	"repro/internal/raid"
	"repro/internal/wal"
)

// This file is the distributor's durability layer: every commit path
// appends one typed record to the write-ahead log BEFORE its mutation
// becomes visible, periodic checkpoints snapshot the full tables, and
// New replays snapshot+tail so a restarted distributor serves exactly
// the state the last acknowledged commit left behind.

// walRecord is one logical commit, serialized into a WAL frame by the
// binary codec in walcodec.go. Exactly one Op is set per record; the
// other fields are populated per-op (varint encoding makes each unused
// field a single byte on the wire). Every
// record also carries the post-commit watermarks — distributor
// generation plus the allocator counters — so recovery restores them
// without replaying aborted operations that consumed counters but never
// logged anything.
type walRecord struct {
	Op string // register, passwd, upload, update, remove_file, remove_chunk, move_chunk, move_mirror, move_snapshot, drop_snapshot, move_parity

	// Watermarks (every record).
	Gen      uint64 // d.gen after this commit applies
	FIDSeq   uint64
	EncNonce uint64
	VIDCtr   uint64

	Client   string
	Filename string

	// passwd.
	PassHash string
	PassPL   privacy.Level

	// upload: the staged rows, already rebased to absolute indices.
	FID         uint64
	PL          privacy.Level
	Raid        raid.Level
	ChunksBase  int
	StripesBase int
	Chunks      []chunkEntry
	Stripes     []stripeEntry
	ChunkIdx    []int

	// update / remove_chunk.
	Serial   int
	StripeID int
	Chunk    chunkEntry
	Parity   []parityShard
	Members  []int
	ShardLen int

	// moves (decommission relocations).
	TableIdx int // chunk index, or stripe index for move_parity
	SubIdx   int // mirror index / parity index
	NewProv  int
	NewVID   string

	// Per-file and per-client generations after this commit applies.
	FileGen   uint64
	ClientGen uint64
}

// walState is the checkpoint payload: the full committed tables plus the
// allocator watermarks. provCount is deliberately absent — recovery
// recomputes it from the tables, which doubles as an integrity check
// that every placement is inside the fleet.
type walState struct {
	Clients  map[string]*clientEntry
	Chunks   []chunkEntry
	Stripes  []stripeEntry
	Gen      uint64
	FIDSeq   uint64
	EncNonce uint64
	VIDCtr   uint64
}

// walCounterSlack is added to every allocator counter after recovery.
// Operations that aborted after the plan phase consumed nonces, file ids
// and virtual-id counter values that no record ever logged; restarting
// exactly at the logged watermark could re-issue them. Re-using an
// AES-CTR nonce under the same key breaks confidentiality outright, so
// the slack is generous.
const walCounterSlack = 1 << 16

// defaultSnapshotEvery is the checkpoint cadence (in records) when
// Config.SnapshotEvery is zero.
const defaultSnapshotEvery = 4096

// errClosed reports an append on a distributor that has been Closed (or
// Crashed); the owning mutation aborts cleanly.
var errClosed = errors.New("core: distributor closed")

// logAppendLocked fills rec's allocator watermarks, appends it to the
// WAL (honoring the sync policy) and hands the encoded record to the
// commit hook, which is how a Cluster feeds incremental replication. A
// nil WAL with no hook (plain in-memory distributor) is a no-op.
// Callers hold d.mu and MUST abort their commit — leaving the tables
// untouched and rolling back shipped blobs — when this fails: a
// mutation that is not durable must not become visible. The hook runs
// only after a successful append, so every record it sees is exactly a
// committed mutation.
func (d *Distributor) logAppendLocked(rec *walRecord) error {
	if d.wal == nil && d.commitHook == nil {
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
	raw := encodeWALRecord(rec)
	if d.wal != nil {
		if err := d.wal.Append(raw); err != nil {
			return fmt.Errorf("core: wal append: %w", err)
		}
	}
	if d.commitHook != nil {
		d.commitHook(raw)
	}
	return nil
}

// setCommitHook registers fn to receive every committed mutation's
// encoded WAL record. fn runs under d.mu immediately after the record
// is appended (or, on an in-memory distributor, where the append would
// have been), so it must be cheap, must not block, and must not call
// back into the distributor. Install before concurrent use.
func (d *Distributor) setCommitHook(fn func(raw []byte)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.commitHook = fn
}

// maybeCheckpointLocked checkpoints when the log tail has grown past the
// configured cadence. A checkpoint failure is not fatal to the mutation
// that triggered it — the records are already durable, the tail just
// stays long — so it is only counted. Callers hold d.mu.
func (d *Distributor) maybeCheckpointLocked() {
	if d.wal == nil || d.closed {
		return
	}
	if d.wal.Stats().SinceCheckpoint < uint64(d.snapshotEvery) {
		return
	}
	if err := d.checkpointLocked(); err != nil {
		d.walCheckpointErrs.Add(1)
	}
}

// checkpointLocked snapshots the committed tables into the WAL and
// rotates the log. Callers hold d.mu.
func (d *Distributor) checkpointLocked() error {
	st := walState{
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
	if err := d.wal.Checkpoint(encodeWALState(&st)); err != nil {
		return fmt.Errorf("core: wal checkpoint: %w", err)
	}
	return nil
}

// recoverWAL opens cfg.WALDir and rebuilds the distributor's tables from
// the newest snapshot plus the log tail. Runs from New, before the
// distributor is published, so the *Locked helpers are safe without the
// lock. On any decode or apply failure the error names the record so an
// operator can tell a torn tail (repaired silently) from real corruption.
func (d *Distributor) recoverWAL(cfg Config) error {
	every := cfg.SnapshotEvery
	if every == 0 {
		every = defaultSnapshotEvery
	}
	if every < 1 {
		return fmt.Errorf("%w: snapshot every %d", ErrConfig, cfg.SnapshotEvery)
	}
	d.snapshotEvery = every
	log, rec, err := wal.Open(cfg.WALDir, wal.Options{Policy: cfg.WALSync, BugSkipSync: cfg.WALBugSkipSync})
	if err != nil {
		return fmt.Errorf("core: opening wal: %w", err)
	}
	d.wal = log
	d.walTailTruncated = rec.TailTruncated
	if rec.Snapshot != nil {
		var st walState
		if err := decodeWALState(rec.Snapshot, &st); err != nil {
			log.Close()
			return fmt.Errorf("core: decoding wal snapshot (lsn %d): %w", rec.SnapshotLSN, err)
		}
		d.installState(&st)
		d.walRecoveredSnapshot = true
	}
	for i, raw := range rec.Records {
		var r walRecord
		if err := decodeWALRecord(raw, &r); err != nil {
			log.Close()
			return fmt.Errorf("core: decoding wal record lsn %d: %w", rec.SnapshotLSN+uint64(i), err)
		}
		if err := d.applyWALRecord(&r); err != nil {
			log.Close()
			return fmt.Errorf("core: replaying wal record lsn %d (op %s): %w", rec.SnapshotLSN+uint64(i), r.Op, err)
		}
	}
	d.walReplayed = int64(len(rec.Records))
	if err := d.recomputeProvCountLocked(); err != nil {
		log.Close()
		return err
	}
	if d.walRecoveredSnapshot || d.walReplayed > 0 {
		// Aborted operations consumed counters no record logged; never
		// re-issue a nonce, fid or vid a previous incarnation may have used.
		d.fidSeq += walCounterSlack
		d.encNonce += walCounterSlack
		if prf, ok := d.vids.(*prfAllocator); ok {
			prf.ctr += walCounterSlack
		}
		// Blobs shipped by tickets that never reached their commit record
		// are unreferenced now; sweep them like an interrupted removal.
		// Best-effort — unreachable providers are audited again later. The
		// sweep is gated on having actually recovered state so that
		// pointing a fresh WALDir at a populated fleet cannot mass-delete.
		if rep, err := d.AuditOrphans(true); err == nil {
			d.recoveryOrphans = int64(rep.Deleted)
		}
	}
	return nil
}

// installState replaces the tables with a decoded checkpoint.
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
	d.fidSeq = st.FIDSeq
	d.encNonce = st.EncNonce
	d.restoreVIDCtr(st.VIDCtr)
}

// restoreVIDCtr advances the PRF allocator to at least ctr. Custom
// allocators (scripted, test fakes) carry no counter to restore.
func (d *Distributor) restoreVIDCtr(ctr uint64) {
	if prf, ok := d.vids.(*prfAllocator); ok && ctr > prf.ctr {
		prf.ctr = ctr
	}
}

// applyWALRecord replays one commit against the tables. It validates
// every reference — replay is the one place a corrupt-but-CRC-valid or
// out-of-order record could silently poison the tables, so a mismatch is
// an error, not a best-effort patch. Mutates clients/chunks/stripes, the
// watermarks, and the per-provider counts (incrementally, so a follower
// applying a replication stream never pays an O(table) recompute);
// recovery still recomputes the counts wholesale afterwards, which is
// what makes the bump helpers safe to no-op when no fleet is attached.
// The cache starts empty in a fresh process and is generation-keyed, so
// stale entries on a follower miss naturally.
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
		fe, err := d.replayFile(rec)
		if err != nil {
			return err
		}
		idx, err := d.replayChunkIdx(fe, rec.Serial)
		if err != nil {
			return err
		}
		if rec.StripeID < 0 || rec.StripeID >= len(d.stripes) {
			return fmt.Errorf("stripe %d out of range", rec.StripeID)
		}
		st := &d.stripes[rec.StripeID]
		d.bumpChunkProvLocked(&d.chunks[idx], -1)
		d.bumpParityProvLocked(st.Parity, -1)
		d.chunks[idx] = rec.Chunk
		d.bumpChunkProvLocked(&rec.Chunk, 1)
		st.Parity = rec.Parity
		d.bumpParityProvLocked(rec.Parity, 1)
		if rec.ShardLen > 0 {
			st.ShardLen = rec.ShardLen
		}
		fe.Gen = rec.FileGen

	case "remove_file":
		c := d.clients[rec.Client]
		fe, err := d.replayFile(rec)
		if err != nil {
			return err
		}
		remaining := 0
		seenStripe := map[int]bool{}
		for _, idx := range fe.ChunkIdx {
			if idx < 0 {
				continue
			}
			if idx >= len(d.chunks) {
				return fmt.Errorf("chunk %d out of range", idx)
			}
			remaining++
			e := &d.chunks[idx]
			d.bumpChunkProvLocked(e, -1)
			if !seenStripe[e.StripeID] {
				seenStripe[e.StripeID] = true
				st := &d.stripes[e.StripeID]
				d.bumpParityProvLocked(st.Parity, -1)
				st.Parity = nil
				st.Members = nil
			}
			e.tombstone()
		}
		c.Count -= remaining
		delete(c.Files, rec.Filename)
		c.Gen = rec.ClientGen

	case "remove_chunk":
		c := d.clients[rec.Client]
		fe, err := d.replayFile(rec)
		if err != nil {
			return err
		}
		idx, err := d.replayChunkIdx(fe, rec.Serial)
		if err != nil {
			return err
		}
		if rec.StripeID < 0 || rec.StripeID >= len(d.stripes) {
			return fmt.Errorf("stripe %d out of range", rec.StripeID)
		}
		st := &d.stripes[rec.StripeID]
		d.bumpParityProvLocked(st.Parity, -1)
		st.Members = rec.Members
		st.ShardLen = rec.ShardLen
		st.Parity = rec.Parity
		d.bumpParityProvLocked(rec.Parity, 1)
		e := &d.chunks[idx]
		d.bumpChunkProvLocked(e, -1)
		e.tombstone()
		fe.ChunkIdx[rec.Serial] = -1
		c.Count--
		fe.Gen = rec.FileGen

	case "move_chunk":
		fe, err := d.replayFile(rec)
		if err != nil {
			return err
		}
		if rec.TableIdx < 0 || rec.TableIdx >= len(d.chunks) {
			return fmt.Errorf("chunk %d out of range", rec.TableIdx)
		}
		e := &d.chunks[rec.TableIdx]
		if e.CPIndex >= 0 {
			d.bumpProvLocked(e.CPIndex, -1)
			d.bumpProvLocked(rec.NewProv, 1)
		}
		e.CPIndex = rec.NewProv
		e.VirtualID = rec.NewVID
		fe.Gen = rec.FileGen

	case "move_mirror":
		fe, err := d.replayFile(rec)
		if err != nil {
			return err
		}
		if rec.TableIdx < 0 || rec.TableIdx >= len(d.chunks) {
			return fmt.Errorf("chunk %d out of range", rec.TableIdx)
		}
		e := &d.chunks[rec.TableIdx]
		if rec.SubIdx < 0 || rec.SubIdx >= len(e.Mirrors) {
			return fmt.Errorf("mirror %d of chunk %d out of range", rec.SubIdx, rec.TableIdx)
		}
		if e.CPIndex >= 0 {
			d.bumpProvLocked(e.Mirrors[rec.SubIdx].CPIndex, -1)
			d.bumpProvLocked(rec.NewProv, 1)
		}
		e.Mirrors[rec.SubIdx] = mirrorRef{VirtualID: rec.NewVID, CPIndex: rec.NewProv}
		fe.Gen = rec.FileGen

	case "move_snapshot":
		fe, err := d.replayFile(rec)
		if err != nil {
			return err
		}
		if rec.TableIdx < 0 || rec.TableIdx >= len(d.chunks) {
			return fmt.Errorf("chunk %d out of range", rec.TableIdx)
		}
		e := &d.chunks[rec.TableIdx]
		if e.CPIndex >= 0 {
			if e.SnapVID != "" {
				d.bumpProvLocked(e.SPIndex, -1)
			}
			if rec.NewVID != "" {
				d.bumpProvLocked(rec.NewProv, 1)
			}
		}
		e.SPIndex = rec.NewProv
		e.SnapVID = rec.NewVID
		fe.Gen = rec.FileGen

	case "drop_snapshot":
		fe, err := d.replayFile(rec)
		if err != nil {
			return err
		}
		if rec.TableIdx < 0 || rec.TableIdx >= len(d.chunks) {
			return fmt.Errorf("chunk %d out of range", rec.TableIdx)
		}
		e := &d.chunks[rec.TableIdx]
		if e.CPIndex >= 0 && e.SnapVID != "" {
			d.bumpProvLocked(e.SPIndex, -1)
		}
		e.SPIndex = -1
		e.SnapVID = ""
		fe.Gen = rec.FileGen

	case "move_parity":
		fe, err := d.replayFile(rec)
		if err != nil {
			return err
		}
		if rec.TableIdx < 0 || rec.TableIdx >= len(d.stripes) {
			return fmt.Errorf("stripe %d out of range", rec.TableIdx)
		}
		st := &d.stripes[rec.TableIdx]
		if rec.SubIdx < 0 || rec.SubIdx >= len(st.Parity) {
			return fmt.Errorf("parity %d of stripe %d out of range", rec.SubIdx, rec.TableIdx)
		}
		d.bumpProvLocked(st.Parity[rec.SubIdx].CPIndex, -1)
		d.bumpProvLocked(rec.NewProv, 1)
		st.Parity[rec.SubIdx] = parityShard{VirtualID: rec.NewVID, CPIndex: rec.NewProv}
		fe.Gen = rec.FileGen

	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}

	d.gen = rec.Gen
	if rec.FIDSeq > d.fidSeq {
		d.fidSeq = rec.FIDSeq
	}
	if rec.EncNonce > d.encNonce {
		d.encNonce = rec.EncNonce
	}
	d.restoreVIDCtr(rec.VIDCtr)
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

// replayChunkIdx resolves a file's serial to a live chunk-table index.
func (d *Distributor) replayChunkIdx(fe *fileEntry, serial int) (int, error) {
	if serial < 0 || serial >= len(fe.ChunkIdx) {
		return 0, fmt.Errorf("serial %d out of range for %q", serial, fe.Filename)
	}
	idx := fe.ChunkIdx[serial]
	if idx < 0 || idx >= len(d.chunks) {
		return 0, fmt.Errorf("serial %d of %q resolves to chunk %d, table holds %d", serial, fe.Filename, idx, len(d.chunks))
	}
	return idx, nil
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

// bumpChunkProvLocked adjusts provider counts for every placement a
// live chunk entry holds: primary, mirrors and snapshot. Dead entries
// (CPIndex < 0) carry no counted placements, matching the rules in
// recomputeProvCountLocked.
func (d *Distributor) bumpChunkProvLocked(e *chunkEntry, delta int) {
	if e.CPIndex < 0 {
		return
	}
	d.bumpProvLocked(e.CPIndex, delta)
	for _, m := range e.Mirrors {
		d.bumpProvLocked(m.CPIndex, delta)
	}
	if e.SnapVID != "" {
		d.bumpProvLocked(e.SPIndex, delta)
	}
}

// bumpParityProvLocked adjusts provider counts for a parity shard list.
func (d *Distributor) bumpParityProvLocked(ps []parityShard, delta int) {
	for _, p := range ps {
		d.bumpProvLocked(p.CPIndex, delta)
	}
}

// Generation returns the distributor's commit generation: it advances on
// every committed mutation and is what replication lag is measured in.
func (d *Distributor) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// ApplyReplicated applies one encoded commit record shipped from a
// primary distributor onto this follower: the same log-before-mutate
// discipline as a local commit (a durable follower appends the raw
// record to its own WAL first), then the same validated replay path the
// recovery code uses. The record's generation watermark must not run
// behind the follower's — that is the conflict check that catches a
// stream applied out of order or against a diverged replica; structural
// validation inside the replay catches everything subtler, and either
// failure tells the caller to fall back to a full snapshot. Returns the
// follower's generation after the record applies.
func (d *Distributor) ApplyReplicated(raw []byte) (uint64, error) {
	var rec walRecord
	if err := decodeWALRecord(raw, &rec); err != nil {
		return 0, fmt.Errorf("core: decoding replicated record: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, errClosed
	}
	if rec.Gen < d.gen {
		return 0, fmt.Errorf("%w: replicated %s record at generation %d behind follower generation %d",
			ErrConflict, rec.Op, rec.Gen, d.gen)
	}
	if d.wal != nil {
		if err := d.wal.Append(raw); err != nil {
			return 0, fmt.Errorf("core: follower wal append: %w", err)
		}
	}
	if err := d.applyWALRecord(&rec); err != nil {
		return 0, fmt.Errorf("core: applying replicated %s record: %w", rec.Op, err)
	}
	d.maybeCheckpointLocked()
	return d.gen, nil
}

// recomputeProvCountLocked rebuilds the committed per-provider counts
// from the tables. Doubles as the fleet-shape check: a WAL directory
// recorded against a different fleet places shards outside this one, and
// that must fail loudly at startup instead of panicking on first read.
func (d *Distributor) recomputeProvCountLocked() error {
	n := d.fleet.Len()
	counts := make([]int, n)
	tally := func(what string, provIdx int) error {
		if provIdx >= n {
			return fmt.Errorf("core: wal recovery: %s placed on provider %d but the fleet has %d — wrong fleet for this WAL directory", what, provIdx, n)
		}
		if provIdx >= 0 {
			counts[provIdx]++
		}
		return nil
	}
	for i := range d.chunks {
		c := &d.chunks[i]
		if err := tally(fmt.Sprintf("chunk %s#%d", c.Filename, c.Serial), c.CPIndex); err != nil {
			return err
		}
		if c.CPIndex < 0 {
			continue
		}
		for _, m := range c.Mirrors {
			if err := tally(fmt.Sprintf("mirror of %s#%d", c.Filename, c.Serial), m.CPIndex); err != nil {
				return err
			}
		}
		if c.SnapVID != "" {
			if err := tally(fmt.Sprintf("snapshot of %s#%d", c.Filename, c.Serial), c.SPIndex); err != nil {
				return err
			}
		}
	}
	for si := range d.stripes {
		for _, ps := range d.stripes[si].Parity {
			if err := tally(fmt.Sprintf("parity of stripe %d", si), ps.CPIndex); err != nil {
				return err
			}
		}
	}
	d.provCount = counts
	return nil
}

// Close gracefully shuts the distributor down: waits (bounded by ctx)
// for in-flight tickets to settle, writes a final checkpoint and closes
// the WAL. Further mutations fail with a closed error. Safe to call on
// an in-memory distributor (marks it closed, nothing to flush) and safe
// to call twice.
func (d *Distributor) Close(ctx context.Context) error {
	drained := d.drainTickets(ctx)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	var ckErr error
	if d.wal != nil {
		ckErr = d.checkpointLocked()
	}
	d.mu.Unlock()
	if d.wal == nil {
		return nil
	}
	var drainErr error
	if !drained {
		drainErr = fmt.Errorf("core: close: in-flight writes still open at deadline; their blobs will be swept as orphans on recovery")
	}
	return errors.Join(drainErr, ckErr, d.wal.Close())
}

// Crash abandons the distributor the way a power loss would: no drain,
// no final checkpoint, and the WAL keeps only what its sync policy made
// durable. Fault-injection harnesses use this; production uses Close.
func (d *Distributor) Crash() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	if d.wal == nil {
		return nil
	}
	return d.wal.Crash()
}

// drainTickets waits for every in-flight write (open tickets and upload
// reservations) to commit or abort, polling until ctx expires.
func (d *Distributor) drainTickets(ctx context.Context) bool {
	for {
		d.mu.Lock()
		idle := len(d.inflight) == 0 && len(d.reserved) == 0
		d.mu.Unlock()
		if idle {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// WALStats is the deterministic slice of the durability layer's counters
// carried inside OpMetrics. Comparable scalars only — no wall-clock
// fields — so simulation harnesses can compare whole metric snapshots
// with ==; the age-based view lives in WALHealth.
type WALStats struct {
	Enabled           bool
	Records           int64 // records appended since this process opened the log
	Fsyncs            int64
	Checkpoints       int64
	CheckpointErrors  int64
	SinceCheckpoint   int64 // log-tail records a crash right now would replay
	Replayed          int64 // records replayed at startup
	RecoveredSnapshot bool
	TailTruncated     bool  // startup truncated a torn final record
	RecoveryOrphans   int64 // orphan blobs swept by the post-recovery audit
}

// walStats assembles the WALStats snapshot; zero value when the
// distributor is in-memory.
func (d *Distributor) walStats() WALStats {
	if d.wal == nil {
		return WALStats{}
	}
	st := d.wal.Stats()
	return WALStats{
		Enabled:           true,
		Records:           st.Appended,
		Fsyncs:            st.Fsyncs,
		Checkpoints:       st.Checkpoints,
		CheckpointErrors:  d.walCheckpointErrs.Load(),
		SinceCheckpoint:   int64(st.SinceCheckpoint),
		Replayed:          d.walReplayed,
		RecoveredSnapshot: d.walRecoveredSnapshot,
		TailTruncated:     d.walTailTruncated,
		RecoveryOrphans:   d.recoveryOrphans,
	}
}

// WALHealth is the operator-facing durability view served on /v1/health:
// WALStats plus log positions and the last-checkpoint age.
type WALHealth struct {
	Enabled             bool   `json:"enabled"`
	Policy              string `json:"policy,omitempty"`
	NextLSN             uint64 `json:"next_lsn,omitempty"`
	SegmentBase         uint64 `json:"segment_base,omitempty"`
	SinceCheckpoint     uint64 `json:"since_checkpoint,omitempty"`
	Records             int64  `json:"records,omitempty"`
	Fsyncs              int64  `json:"fsyncs,omitempty"`
	Checkpoints         int64  `json:"checkpoints,omitempty"`
	Replayed            int64  `json:"replayed,omitempty"`
	TailTruncated       bool   `json:"tail_truncated,omitempty"`
	LastCheckpointAgeMs int64  `json:"last_checkpoint_age_ms,omitempty"`
}

// WALHealth reports the durability layer's health. d.wal is assigned
// once before the distributor is published and never reassigned, so no
// lock is needed.
func (d *Distributor) WALHealth() WALHealth {
	if d.wal == nil {
		return WALHealth{}
	}
	st := d.wal.Stats()
	h := WALHealth{
		Enabled:         true,
		Policy:          st.Policy,
		NextLSN:         st.NextLSN,
		SegmentBase:     st.SegmentBase,
		SinceCheckpoint: st.SinceCheckpoint,
		Records:         st.Appended,
		Fsyncs:          st.Fsyncs,
		Checkpoints:     st.Checkpoints,
		Replayed:        d.walReplayed,
		TailTruncated:   d.walTailTruncated,
	}
	if st.LastCheckpointUnixNano > 0 {
		h.LastCheckpointAgeMs = time.Since(time.Unix(0, st.LastCheckpointUnixNano)).Milliseconds()
	}
	return h
}

// WALReport summarizes an offline replay validation of a WAL directory.
type WALReport struct {
	HasSnapshot   bool
	SnapshotLSN   uint64
	Records       int
	TailTruncated bool
	// CodecVersions lists, in ascending order, the walcodec layout
	// versions found at the head of the snapshot and the tail records:
	// more than one means the directory spans an upgrade and the older
	// frames go away with the next checkpoint.
	CodecVersions []int
	Gen           uint64
	Clients       int
	Files         int
	LiveChunks    int
	Stripes       int
}

// ValidateWALDir replays a WAL directory read-only — no truncation, no
// fleet, no providers — and reports what a recovery would reconstruct.
// Any decode or apply failure is returned verbatim, so tooling can exit
// nonzero on a directory a real restart would refuse.
func ValidateWALDir(dir string) (WALReport, error) {
	rec, err := wal.ReadAll(dir)
	if err != nil {
		return WALReport{}, err
	}
	rep := WALReport{
		SnapshotLSN:   rec.SnapshotLSN,
		Records:       len(rec.Records),
		TailTruncated: rec.TailTruncated,
	}
	var seen [256]bool
	for _, frame := range append([][]byte{rec.Snapshot}, rec.Records...) {
		if len(frame) > 0 {
			seen[frame[0]] = true
		}
	}
	for v, found := range seen {
		if found {
			rep.CodecVersions = append(rep.CodecVersions, v)
		}
	}
	d := &Distributor{clients: map[string]*clientEntry{}}
	if rec.Snapshot != nil {
		rep.HasSnapshot = true
		var st walState
		if err := decodeWALState(rec.Snapshot, &st); err != nil {
			return rep, fmt.Errorf("core: decoding wal snapshot (lsn %d): %w", rec.SnapshotLSN, err)
		}
		d.installState(&st)
	}
	for i, raw := range rec.Records {
		var r walRecord
		if err := decodeWALRecord(raw, &r); err != nil {
			return rep, fmt.Errorf("core: decoding wal record lsn %d: %w", rec.SnapshotLSN+uint64(i), err)
		}
		if err := d.applyWALRecord(&r); err != nil {
			return rep, fmt.Errorf("core: replaying wal record lsn %d (op %s): %w", rec.SnapshotLSN+uint64(i), r.Op, err)
		}
	}
	rep.Gen = d.gen
	rep.Clients = len(d.clients)
	for _, c := range d.clients {
		rep.Files += len(c.Files)
	}
	for i := range d.chunks {
		if d.chunks[i].CPIndex >= 0 {
			rep.LiveChunks++
		}
	}
	rep.Stripes = len(d.stripes)
	return rep, nil
}
