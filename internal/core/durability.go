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

// This file is the distributor's durability layer: every commit appends
// one typed record to the write-ahead log BEFORE its mutation becomes
// visible (commitLocked, apply.go), periodic checkpoints snapshot the full
// tables, and New replays snapshot+tail — through the same applyWALRecord
// the commits ran — so a restarted distributor serves exactly the state
// the last acknowledged commit left behind.

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

	// moves (decommission relocations): the shardSlot and what it now holds.
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
	if err := d.wal.Checkpoint(encodeWALState(d.stateLocked())); err != nil {
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
	if err := d.replay(rec); err != nil {
		log.Close()
		return err
	}
	d.walRecoveredSnapshot = rec.Snapshot != nil
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
		if rep, err := AuditOrphans(d, true); err == nil {
			d.recoveryOrphans = int64(rep.Deleted)
		}
	}
	return nil
}

// replay rebuilds the tables from a recovered directory: it installs the
// snapshot, then applies each logged record in order. recoverWAL and
// ValidateWALDir both call it, so an offline validation accepts exactly
// what a restart would.
func (d *Distributor) replay(rec wal.Recovered) error {
	if rec.Snapshot != nil {
		var st walState
		if err := decodeWALState(rec.Snapshot, &st); err != nil {
			return fmt.Errorf("core: decoding wal snapshot (lsn %d): %w", rec.SnapshotLSN, err)
		}
		d.installState(&st)
	}
	for i, raw := range rec.Records {
		lsn := rec.SnapshotLSN + uint64(i)
		var r walRecord
		if err := decodeWALRecord(raw, &r); err != nil {
			return fmt.Errorf("core: decoding wal record lsn %d: %w", lsn, err)
		}
		if err := d.applyWALRecord(&r); err != nil {
			return fmt.Errorf("core: replaying wal record lsn %d (op %s): %w", lsn, r.Op, err)
		}
	}
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

// Crash abandons d the way a power loss would: no drain, no final
// checkpoint, and the WAL keeps only what its sync policy made durable.
// Fault-injection harnesses use this; production uses Close. It is a
// function, not a method, so it stays off the product surface.
func Crash(d *Distributor) error {
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

// walHealth is Health's durability view. d.wal is assigned once before
// the distributor is published and never reassigned, so no lock is
// needed.
func (d *Distributor) walHealth() WALHealth {
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
		HasSnapshot:   rec.Snapshot != nil,
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
	if err := d.replay(rec); err != nil {
		return rep, err
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
