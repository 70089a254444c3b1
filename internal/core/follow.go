package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wal"
)

// This file is the paper's extended architecture (Fig. 2): "a specific
// distributor will act as the primary distributor that will upload data,
// whereas other distributors will act as secondary distributors who can
// perform the data retrieval operations." A secondary is a follower of a
// durable primary: it reads the primary's WAL from its own position on
// and applies each record through the replay path a recovery runs, so
// the primary's log is the one replication log there is.

// errFollower refuses a write on a follower: its tables change only by
// its primary's records, and a write of its own would diverge them.
var errFollower = fmt.Errorf("%w: a follower takes writes from its primary's log only", ErrUnavailable)

// FollowReport is what one Follow call did.
type FollowReport struct {
	Records  int    // primary records applied one by one
	Resynced bool   // one full snapshot replaced the tables
	LSN      uint64 // the primary's log position the follower now holds
}

// Follow brings d up to date with primary. It reads the records the
// primary's WAL holds from d's position on and applies them in order. It
// falls back to one full snapshot of the primary when the log no longer
// holds the position (a checkpoint trimmed it), when the position is past
// the log's end (the primary lost records in a crash), or when a record
// refuses to apply (d diverged, e.g. it joined with state of its own).
// Equal positions are trusted to mean one log lineage. From its first
// Follow on, d refuses writes of its own with ErrUnavailable. Follow
// calls on one follower run one at a time.
func (d *Distributor) Follow(primary *Distributor) (FollowReport, error) {
	if primary.wal == nil {
		return FollowReport{}, fmt.Errorf("%w: a primary without a WAL has no log to follow", ErrConfig)
	}
	if primary == d || primary.fleet != d.fleet {
		return FollowReport{}, fmt.Errorf("%w: a follower shares its primary's fleet and is not the primary", ErrConfig)
	}
	d.followMu.Lock()
	defer d.followMu.Unlock()
	d.mu.Lock()
	closed := d.closed
	d.following = true
	rep := FollowReport{LSN: d.followLSN}
	d.mu.Unlock()
	if closed {
		return rep, errClosed
	}
	records, err := primary.wal.Since(rep.LSN)
	if errors.Is(err, wal.ErrTrimmed) || errors.Is(err, wal.ErrAhead) {
		return d.resync(primary, rep)
	}
	if err != nil {
		return rep, fmt.Errorf("core: follow: %w", err)
	}
	for _, raw := range records {
		if d.applyReplicated(raw) != nil {
			return d.resync(primary, rep)
		}
		rep.Records++
		rep.LSN++
	}
	return rep, nil
}

// applyReplicated applies one of the primary's records: the same
// log-before-mutate discipline as a local commit (a durable follower
// appends the record to its own WAL first), then the validated replay a
// recovery runs. The record's generation must not run behind the
// follower's — the conflict check that catches a record applied out of
// order or onto diverged tables; the replay's own validation catches the
// rest. Either failure leaves the tables untouched and makes Follow, its
// one caller, resync.
func (d *Distributor) applyReplicated(raw []byte) error {
	var rec walRecord
	if err := decodeWALRecord(raw, &rec); err != nil {
		return fmt.Errorf("core: decoding replicated record: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errClosed
	}
	if rec.Gen < d.gen {
		return fmt.Errorf("%w: replicated %s record at generation %d behind follower generation %d",
			ErrConflict, rec.Op, rec.Gen, d.gen)
	}
	if d.wal != nil {
		if err := d.wal.Append(raw); err != nil {
			return fmt.Errorf("core: follower wal append: %w", err)
		}
	}
	if err := d.applyWALRecord(&rec); err != nil {
		return fmt.Errorf("core: applying replicated %s record: %w", rec.Op, err)
	}
	d.followLSN++
	d.maybeCheckpointLocked()
	return nil
}

// resync replaces d's tables with one snapshot of the primary's and moves
// d's position to the log position the snapshot covers. Every append to
// the primary's log happens under its write lock, so its read lock pins
// the two together: no record can land in between and be skipped.
func (d *Distributor) resync(primary *Distributor, rep FollowReport) (FollowReport, error) {
	primary.mu.RLock()
	snap, lsn := primary.exportMetadataLocked(), primary.wal.Stats().NextLSN
	primary.mu.RUnlock()
	if err := d.ImportMetadata(snap); err != nil {
		return rep, fmt.Errorf("core: follow: resync: %w", err)
	}
	d.mu.Lock()
	d.followLSN = lsn
	d.mu.Unlock()
	rep.Resynced, rep.LSN = true, lsn
	return rep, nil
}

// ExportMetadata serializes the distributor's full committed state —
// everything a secondary needs to serve retrievals plus the commit
// generation and allocator watermarks, so an imported snapshot leaves the
// replica able to take over as primary without re-issuing identifiers the
// exporter already used. Because mutations stage off-table and only touch
// the live tables in their commit (under d.mu), the snapshot always
// reflects a consistent committed state: no half-shipped upload's rows,
// pending provider counts or reservations ever leak into it.
func (d *Distributor) ExportMetadata() ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.exportMetadataLocked(), nil
}

// exportMetadataLocked is ExportMetadata under a caller-held read lock,
// so a resync can pin the log position to the exact state it serializes.
// The payload is the fleet size, so an importer over a different fleet
// can refuse it, then the same encoding of the same state a WAL
// checkpoint holds.
func (d *Distributor) exportMetadataLocked() []byte {
	return append(binary.AppendUvarint(nil, uint64(d.fleet.Len())), encodeWALState(d.stateLocked())...)
}

// ImportMetadata replaces the distributor's tables with a snapshot
// exported by another distributor over the same fleet, the way a
// recovery installs a checkpoint: generation from the snapshot, allocator
// watermarks only ever advancing, provider counts recomputed from the
// tables.
func (d *Distributor) ImportMetadata(data []byte) error {
	fleetLen, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("core: import metadata: truncated snapshot")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if fleetLen != uint64(d.fleet.Len()) {
		return fmt.Errorf("%w: snapshot covers %d providers, fleet has %d", ErrConfig, fleetLen, d.fleet.Len())
	}
	var st walState
	if err := decodeWALState(data[n:], &st); err != nil {
		return fmt.Errorf("core: import metadata: %w", err)
	}
	if err := d.installCountedState(&st); err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	}
	// A durable secondary must checkpoint immediately: its log records
	// predate the imported tables and no longer replay against them.
	if d.wal != nil && !d.closed {
		if err := d.checkpointLocked(); err != nil {
			return fmt.Errorf("core: import metadata: %w", err)
		}
	}
	return nil
}
