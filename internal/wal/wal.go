// Package wal provides the distributor's durability layer: an
// append-only, CRC32C-framed record log plus periodic full-state
// snapshots, laid out as one file pair family in a single directory.
//
// File layout. The active log segment is wal-<base>.log where <base> is
// the LSN (cumulative record count) of its first record; a checkpoint
// writes snap-<lsn>.ckpt via tmp+rename, rotates the log to a fresh
// segment based at that LSN and purges every older segment and snapshot.
// Recovery therefore loads the newest snapshot and replays exactly one
// segment tail.
//
// Tailing. Since serves the records from a position on to a reader that
// follows the log. Once a log has been tailed, a checkpoint keeps the one
// segment it supersedes, complete, until the next checkpoint, so a reader
// up to one checkpoint behind reads on instead of starting over from a
// snapshot. Recovery skips that segment like any other the snapshot
// covers.
//
// Frame format. Each record is [len uint32 LE][crc32c uint32 LE][payload];
// the CRC (Castagnoli) covers the payload only. A record cut short by a
// crash is a torn tail: legal at the end of the last segment, truncated
// on open. A complete frame whose CRC does not match is corruption and
// refuses to open with ErrCorrupt — torn writes shorten, they do not
// rewrite history.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy picks when appended records become durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every Append returns: a record the caller
	// saw succeed survives any crash.
	SyncAlways SyncPolicy = iota
	// SyncGrouped acknowledges appends immediately and fsyncs in the
	// background every GroupInterval: a crash can lose the last interval's
	// records, in exchange for near-memory append latency.
	SyncGrouped
	// SyncOff never fsyncs explicitly; durability is whenever the OS
	// writes back. A crash can lose everything since the last checkpoint.
	SyncOff
)

// String implements fmt.Stringer with the flag spellings.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncGrouped:
		return "grouped"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spellings always/grouped/off.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "grouped", "group":
		return SyncGrouped, nil
	case "off", "none":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, grouped or off)", s)
}

// Options tunes a Log.
type Options struct {
	Policy SyncPolicy
	// GroupInterval is the background fsync cadence under SyncGrouped
	// (default 5ms). It is the policy's loss window and its batch size
	// in one knob: a longer interval amortizes each fsync over more
	// commits, a shorter one narrows what a crash can lose.
	GroupInterval time.Duration
	// BugSkipSync plants a lost-commit bug for fault-injection harnesses:
	// Append reports success but the fsync SyncAlways promises is silently
	// skipped, so a crash loses acknowledged records. The simcheck
	// crash-restart oracle exists to catch exactly this class of bug;
	// never set it outside a harness.
	BugSkipSync bool
}

// Errors the recovery scan can report.
var (
	// ErrCorrupt marks a mid-log record whose CRC does not match, a
	// snapshot that fails its checksum, or segments that do not chain.
	// Unlike a torn tail this is not survivable by truncation: history
	// before the tail has been rewritten or lost.
	ErrCorrupt = errors.New("wal: corrupt")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: closed")
	// ErrTrimmed answers Since for a position the log no longer holds:
	// the segment that held it was purged by a checkpoint. The reader
	// starts over from a full-state snapshot.
	ErrTrimmed = errors.New("wal: position trimmed")
	// ErrAhead answers Since for a position past the last appended record:
	// the reader applied records this log does not have (a crash under a
	// lossy sync policy lost them), so it starts over from a snapshot too.
	ErrAhead = errors.New("wal: position ahead of the log")
)

const (
	segMagic    = "CDDWAL01"
	snapMagic   = "CDDSNAP1"
	headerLen   = 16 // magic + base LSN
	frameHeader = 8  // len + crc
	// maxRecord bounds one record's payload; appends beyond it fail
	// loudly instead of writing a frame recovery would reject.
	maxRecord = 64 << 20
	// bufFlushBytes caps the user-space append buffer of the grouped and
	// off policies; a buffer past it is written through inline.
	bufFlushBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Recovered is what Open (or ReadAll) reconstructed from the directory.
type Recovered struct {
	// Snapshot is the newest checkpoint's payload, nil when none exists.
	Snapshot []byte
	// SnapshotLSN is the LSN the snapshot covers records below.
	SnapshotLSN uint64
	// Records are the log-tail payloads after the snapshot, in append
	// order.
	Records [][]byte
	// TailTruncated reports that the last segment ended in a torn record
	// (dropped by Open, reported read-only by ReadAll).
	TailTruncated bool
}

// Stats is a point-in-time snapshot of a Log's counters. All fields are
// comparable scalars so harnesses can embed them in == comparisons.
type Stats struct {
	Policy      string
	NextLSN     uint64
	SegmentBase uint64
	// SinceCheckpoint is the record count the active segment holds — the
	// replay cost of a crash right now.
	SinceCheckpoint uint64
	Appended        int64
	Fsyncs          int64
	Checkpoints     int64
	// LastCheckpointUnixNano is wall-clock (0 = never): callers that need
	// deterministic stats must not compare it.
	LastCheckpointUnixNano int64
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; Append/Checkpoint callers typically already serialize under the
// distributor's table lock.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	seg     uint64 // generation of l.f, bumped on every rotation
	segBase uint64 // LSN of the active segment's first record
	nextLSN uint64
	// buf stages frames the grouped/off policies have acknowledged but
	// not yet written to the file — the group-commit batch. Everything
	// in it is inside the documented loss window (ahead of the fsync
	// watermark), so a crash dropping it loses nothing the policy
	// promised to keep.
	buf     []byte
	written int64 // bytes written to the active segment
	synced  int64 // bytes known durable (advanced only by real fsyncs)
	dirty   bool
	closed  bool
	tailed  bool // Since has been called: checkpoints keep one superseded segment

	appended    atomic.Int64
	fsyncs      atomic.Int64
	checkpoints atomic.Int64
	lastCkpt    atomic.Int64 // unix nanos of the last durable checkpoint

	// stopFlush/flushDone are set once before the flusher goroutine
	// starts and never reassigned; flushStopped (under mu) guards
	// double-stop.
	stopFlush    chan struct{}
	flushDone    chan struct{}
	flushStopped bool
}

// Open recovers dir (created if missing) and returns an appendable Log
// positioned after the last durable record, plus everything recovered: a
// torn final record is truncated away, a CRC-corrupt record anywhere
// before the tail fails with ErrCorrupt.
func Open(dir string, opts Options) (*Log, Recovered, error) {
	if opts.GroupInterval <= 0 {
		opts.GroupInterval = 5 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovered{}, fmt.Errorf("wal: %w", err)
	}
	rec, lastSeg, tornAt, err := recoverDir(dir)
	if err != nil {
		return nil, Recovered{}, err
	}

	l := &Log{dir: dir, opts: opts}
	if rec.Snapshot != nil {
		if snaps, err := scanFiles(dir, "snap-", ".ckpt"); err == nil && len(snaps) > 0 {
			if fi, err := os.Stat(snaps[len(snaps)-1].path); err == nil {
				l.lastCkpt.Store(fi.ModTime().UnixNano())
			}
		}
	}
	l.nextLSN = rec.SnapshotLSN + uint64(len(rec.Records))

	if lastSeg == "" {
		// Empty directory: start the first segment at the snapshot LSN
		// (zero when there is no snapshot either).
		l.segBase = rec.SnapshotLSN
		if err := l.newSegmentLocked(); err != nil {
			return nil, Recovered{}, err
		}
		return l.start(), rec, nil
	}
	if rec.TailTruncated {
		if err := os.Truncate(lastSeg, tornAt); err != nil {
			return nil, Recovered{}, fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(lastSeg), err)
		}
	}
	f, err := os.OpenFile(lastSeg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Recovered{}, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, Recovered{}, fmt.Errorf("wal: %w", err)
	}
	base, err := segmentBase(lastSeg)
	if err != nil {
		f.Close()
		return nil, Recovered{}, err
	}
	l.f = f
	l.segBase = base
	l.written = fi.Size()
	l.synced = fi.Size() // everything replayed is on disk by definition
	return l.start(), rec, nil
}

// start launches the grouped-sync flusher when the policy needs one.
func (l *Log) start() *Log {
	if l.opts.Policy == SyncGrouped {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l
}

// flushLoop runs the group-commit fsync off the append lock: it
// captures (file, segment generation, written watermark) under l.mu,
// fsyncs unlocked so concurrent Appends never stall behind the disk,
// then advances the durable watermark only if the same segment is still
// active. A rotation mid-fsync closes the captured file — os.File makes
// the concurrent Sync/Close safe — and Checkpoint has already made those
// records durable in the snapshot, so the stale result is just dropped.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.GroupInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.dirty || l.closed {
				l.mu.Unlock()
				continue
			}
			if err := l.flushBufLocked(); err != nil {
				// Keep dirty set: the buffer is intact, the next tick
				// retries the write.
				l.mu.Unlock()
				continue
			}
			f, seg, written := l.f, l.seg, l.written
			l.dirty = false
			l.mu.Unlock()

			err := f.Sync()

			l.mu.Lock()
			switch {
			case l.closed || l.seg != seg:
				// Rotated or shut down while syncing: the outcome no
				// longer describes the active segment.
			case err != nil:
				l.dirty = true // retry on the next tick
			default:
				l.fsyncs.Add(1)
				if written > l.synced {
					l.synced = written
				}
			}
			l.mu.Unlock()
		}
	}
}

// Append writes one record and makes it durable per the sync policy.
// Under SyncAlways the record hits the disk before Append returns; under
// SyncGrouped/SyncOff it is staged in the append buffer — no syscall on
// the commit path — and a write error surfaces at the next flush (the
// record was inside the loss window either way).
func (l *Log) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecord)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.nextLSN++
	l.appended.Add(1)
	l.dirty = true
	if l.opts.Policy == SyncAlways {
		if l.opts.BugSkipSync {
			// The planted lost-commit bug: acknowledge without
			// durability. The frame still reaches the file so the loss
			// comes from Crash truncating to the stale fsync watermark,
			// exactly like a real skipped fsync.
			return l.flushBufLocked()
		}
		return l.syncLocked()
	}
	if len(l.buf) >= bufFlushBytes {
		return l.flushBufLocked()
	}
	return nil
}

// flushBufLocked writes the staged frames through to the active segment.
// The buffer is kept on error so the next flush retries the same bytes.
// Callers hold l.mu.
func (l *Log) flushBufLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.written += int64(len(l.buf))
	l.buf = l.buf[:0]
	return nil
}

// syncLocked writes the staged frames and fsyncs the active segment,
// advancing the durable watermark. Callers hold l.mu.
func (l *Log) syncLocked() error {
	if err := l.flushBufLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncs.Add(1)
	l.synced = l.written
	l.dirty = false
	return nil
}

// Sync forces the durable watermark up to everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Since returns the records appended from lsn on, in order: what a reader
// that holds everything below lsn needs next. It writes the staged frames
// through to the file first, so every acknowledged record is there, then
// reads the segments outside the append lock, so a reader never stalls an
// Append. A position older than the oldest segment on disk, or in one a
// checkpoint purges while it is read, answers ErrTrimmed; a position past
// the last appended record answers ErrAhead. The first call marks the log
// tailed (see the package comment).
func (l *Log) Since(lsn uint64) ([][]byte, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	next := l.nextLSN
	if lsn > next {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: lsn %d, the log ends at %d", ErrAhead, lsn, next)
	}
	l.tailed = true
	err := l.flushBufLocked()
	l.mu.Unlock()
	if err != nil || lsn == next {
		return nil, err
	}
	segs, err := scanFiles(l.dir, "wal-", ".log")
	if err != nil {
		return nil, err
	}
	return readSince(segs, lsn, next)
}

// Checkpoint makes state durable as a snapshot covering every record
// appended so far, rotates the log to a fresh segment and purges the
// files the snapshot supersedes. The snapshot lands via tmp+rename with
// a directory fsync, so a crash mid-checkpoint leaves the previous
// snapshot+tail fully intact.
func (l *Log) Checkpoint(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	lsn := l.nextLSN
	path := filepath.Join(l.dir, fmt.Sprintf("snap-%016x.ckpt", lsn))
	tmp := path + ".tmp"
	buf := make([]byte, headerLen+frameHeader+len(state))
	copy(buf, snapMagic)
	binary.BigEndian.PutUint64(buf[8:16], lsn)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(state)))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(state, castagnoli))
	copy(buf[headerLen+frameHeader:], state)
	if err := writeFileSync(tmp, buf); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	syncDir(l.dir)

	// Rotate: the old segment's records — including any still staged in
	// the append buffer — are all covered by the snapshot. An untailed log
	// drops the staged frames rather than write them to a file about to be
	// purged. A tailed one writes them through and keeps that file for its
	// readers; should the write fail, a reader finds the gap and resyncs.
	keep := lsn
	if l.tailed {
		_ = l.flushBufLocked() // best-effort, as above
		keep = l.segBase
	}
	l.buf = l.buf[:0]
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint: closing old segment: %w", err)
	}
	l.segBase = lsn
	if err := l.newSegmentLocked(); err != nil {
		return err
	}
	l.purgeLocked(keep, lsn)
	l.checkpoints.Add(1)
	l.lastCkpt.Store(time.Now().UnixNano())
	return nil
}

// newSegmentLocked creates wal-<segBase>.log with its header and makes
// it the active segment. Callers hold l.mu with l.f closed or unset.
func (l *Log) newSegmentLocked() error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.log", l.segBase))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	hdr := make([]byte, headerLen)
	copy(hdr, segMagic)
	binary.BigEndian.PutUint64(hdr[8:16], l.segBase)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: new segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: new segment: %w", err)
	}
	syncDir(l.dir)
	l.f = f
	l.seg++
	l.written = headerLen
	l.synced = headerLen
	l.dirty = false
	return nil
}

// purgeLocked removes the segments based below segsBelow and the
// snapshots superseded by the durable checkpoint at lsn. Best-effort: a
// leftover file only wastes space and is skipped (not replayed) by the
// next recovery.
func (l *Log) purgeLocked(segsBelow, lsn uint64) {
	segs, _ := scanFiles(l.dir, "wal-", ".log")
	for _, s := range segs {
		if s.base < segsBelow {
			os.Remove(s.path)
		}
	}
	snaps, _ := scanFiles(l.dir, "snap-", ".ckpt")
	for _, s := range snaps {
		if s.base < lsn {
			os.Remove(s.path)
		}
	}
}

// Close flushes outstanding appends and closes the segment — the
// graceful path.
func (l *Log) Close() error {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the log the way a power loss would: the active segment
// is cut back to the last fsynced byte and nothing else is flushed.
// Records acknowledged under SyncGrouped/SyncOff (or under a planted
// BugSkipSync) since the last sync are gone, exactly as on real
// hardware.
func (l *Log) Crash() error {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.buf = nil // staged frames die with the process
	err := l.f.Truncate(l.synced)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *Log) stopFlusher() {
	l.mu.Lock()
	if l.stopFlush == nil || l.flushStopped {
		l.mu.Unlock()
		return
	}
	l.flushStopped = true
	l.mu.Unlock()
	close(l.stopFlush)
	<-l.flushDone
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Policy:                 l.opts.Policy.String(),
		NextLSN:                l.nextLSN,
		SegmentBase:            l.segBase,
		SinceCheckpoint:        l.nextLSN - l.segBase,
		Appended:               l.appended.Load(),
		Fsyncs:                 l.fsyncs.Load(),
		Checkpoints:            l.checkpoints.Load(),
		LastCheckpointUnixNano: l.lastCkpt.Load(),
	}
}

// ---- recovery scan (shared by Open, ReadAll and Inspect) ----

type dirFile struct {
	path string
	base uint64
}

// scanFiles lists dir entries named <prefix><16 hex digits><suffix>,
// sorted by the embedded LSN.
func scanFiles(dir, prefix, suffix string) ([]dirFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []dirFile
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		base, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue // tmp files and strangers are not ours to judge
		}
		out = append(out, dirFile{path: filepath.Join(dir, name), base: base})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out, nil
}

func segmentBase(path string) (uint64, error) {
	name := filepath.Base(path)
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	base, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: bad segment name %q", name)
	}
	return base, nil
}

// readSnapshot decodes one snapshot file.
func readSnapshot(path string) (lsn uint64, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	if len(data) < headerLen+frameHeader || string(data[:8]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: snapshot %s has a bad header", ErrCorrupt, filepath.Base(path))
	}
	lsn = binary.BigEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint32(data[16:20])
	crc := binary.LittleEndian.Uint32(data[20:24])
	body := data[headerLen+frameHeader:]
	if uint64(len(body)) != uint64(n) {
		return 0, nil, fmt.Errorf("%w: snapshot %s holds %d payload bytes, header says %d",
			ErrCorrupt, filepath.Base(path), len(body), n)
	}
	if crc32.Checksum(body, castagnoli) != crc {
		return 0, nil, fmt.Errorf("%w: snapshot %s fails its checksum", ErrCorrupt, filepath.Base(path))
	}
	return lsn, body, nil
}

// replaySegment parses one segment file. For the last segment a short
// final frame is a torn tail: replay stops there and tornAt carries the
// truncation offset. Anywhere else, short frames and CRC mismatches are
// ErrCorrupt with the segment and offset named.
func replaySegment(path string, isLast bool) (base uint64, records [][]byte, tornAt int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, -1, fmt.Errorf("wal: %w", err)
	}
	name := filepath.Base(path)
	if len(data) < headerLen || string(data[:8]) != segMagic {
		return 0, nil, -1, fmt.Errorf("%w: segment %s has a bad header", ErrCorrupt, name)
	}
	base = binary.BigEndian.Uint64(data[8:16])
	off := int64(headerLen)
	tornAt = -1
	for off < int64(len(data)) {
		rest := int64(len(data)) - off
		if rest < frameHeader {
			if isLast {
				return base, records, off, nil
			}
			return 0, nil, -1, fmt.Errorf("%w: segment %s: %d trailing bytes at offset %d before the tail",
				ErrCorrupt, name, rest, off)
		}
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if rest-frameHeader < n {
			if isLast {
				return base, records, off, nil
			}
			return 0, nil, -1, fmt.Errorf("%w: segment %s: record at offset %d claims %d bytes, %d remain before the tail",
				ErrCorrupt, name, off, n, rest-frameHeader)
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			return 0, nil, -1, fmt.Errorf("%w: segment %s: record lsn=%d at offset %d fails its CRC",
				ErrCorrupt, name, base+uint64(len(records)), off)
		}
		records = append(records, payload)
		off += frameHeader + n
	}
	return base, records, -1, nil
}

// recoverDir scans dir and reconstructs the recovered state, the path of
// the last segment ("" when none) and the torn-tail truncation offset
// (-1 when the tail is clean).
func recoverDir(dir string) (Recovered, string, int64, error) {
	var rec Recovered
	snaps, err := scanFiles(dir, "snap-", ".ckpt")
	if err != nil {
		return rec, "", -1, err
	}
	if len(snaps) > 0 {
		newest := snaps[len(snaps)-1]
		lsn, payload, err := readSnapshot(newest.path)
		if err != nil {
			return rec, "", -1, err
		}
		rec.Snapshot = payload
		rec.SnapshotLSN = lsn
	}
	segs, err := scanFiles(dir, "wal-", ".log")
	if err != nil {
		return rec, "", -1, err
	}
	// Segments fully covered by the snapshot are purge leftovers; skip
	// them without reading.
	live := segs[:0]
	for _, s := range segs {
		if s.base >= rec.SnapshotLSN {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return rec, "", -1, nil
	}
	if live[0].base != rec.SnapshotLSN {
		return rec, "", -1, fmt.Errorf("%w: snapshot covers lsn %d but the oldest live segment starts at %d — records are missing",
			ErrCorrupt, rec.SnapshotLSN, live[0].base)
	}
	expect := rec.SnapshotLSN
	tornAt := int64(-1)
	for i, s := range live {
		isLast := i == len(live)-1
		base, records, torn, err := replaySegment(s.path, isLast)
		if err != nil {
			return rec, "", -1, err
		}
		if base != expect {
			return rec, "", -1, fmt.Errorf("%w: segment %s starts at lsn %d, expected %d — the chain is broken",
				ErrCorrupt, filepath.Base(s.path), base, expect)
		}
		rec.Records = append(rec.Records, records...)
		expect = base + uint64(len(records))
		if isLast && torn >= 0 {
			rec.TailTruncated = true
			tornAt = torn
		}
	}
	return rec, live[len(live)-1].path, tornAt, nil
}

// readSince collects the records [lsn, next) from the chain of segments
// that holds them. A segment gone from disk (a checkpoint purged it after
// the listing) or a gap in the chain means the log no longer holds the
// position. The last listed segment may end in a frame an Append is still
// writing; it lies past next and is not read.
func readSince(segs []dirFile, lsn, next uint64) ([][]byte, error) {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].base > lsn }) - 1
	if i < 0 {
		return nil, fmt.Errorf("%w: lsn %d precedes the oldest segment", ErrTrimmed, lsn)
	}
	out := make([][]byte, 0, next-lsn)
	for at := lsn; at < next; i++ {
		if i == len(segs) || segs[i].base > at {
			return nil, fmt.Errorf("%w: no segment holds lsn %d", ErrTrimmed, at)
		}
		_, records, _, err := replaySegment(segs[i].path, i == len(segs)-1)
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %v", ErrTrimmed, err)
		}
		if err != nil {
			return nil, err
		}
		if skip := at - segs[i].base; skip < uint64(len(records)) {
			records = records[skip:min(uint64(len(records)), next-segs[i].base)]
			out = append(out, records...)
			at += uint64(len(records))
		}
	}
	return out, nil
}

// ReadAll performs the recovery scan read-only: nothing is truncated or
// created, so it is safe against a directory another process owns. A
// torn tail is reported, not repaired.
func ReadAll(dir string) (Recovered, error) {
	if _, err := os.Stat(dir); err != nil {
		return Recovered{}, fmt.Errorf("wal: %w", err)
	}
	rec, _, _, err := recoverDir(dir)
	return rec, err
}

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename survives power loss.
// Best-effort: some filesystems refuse directory fsyncs.
func syncDir(dir string) {
	if df, err := os.Open(dir); err == nil {
		_ = df.Sync()
		df.Close()
	}
}
