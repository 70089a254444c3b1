package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// SegmentInfo describes one log segment on disk.
type SegmentInfo struct {
	Path    string
	Base    uint64 // LSN of the segment's first record
	Records int
	Bytes   int64
	// TornTail reports an incomplete final frame (only legal, and only
	// reported, on the last segment; earlier segments fail the scan).
	TornTail bool
}

// SnapshotInfo describes one checkpoint snapshot on disk.
type SnapshotInfo struct {
	Path    string
	LSN     uint64
	Bytes   int64
	ModTime time.Time
}

// Info is a read-only inventory of a WAL directory.
type Info struct {
	Dir       string
	Segments  []SegmentInfo
	Snapshots []SnapshotInfo
}

// Inspect inventories dir without opening, truncating or creating
// anything, decoding just enough of each file to count records. Unlike
// ReadAll it keeps going on a broken chain so an operator can see every
// file; per-file corruption (bad header, short mid-segment frame, CRC
// mismatch) still returns the error alongside what was gathered so far.
func Inspect(dir string) (Info, error) {
	info := Info{Dir: dir}
	if _, err := os.Stat(dir); err != nil {
		return info, fmt.Errorf("wal: %w", err)
	}
	snaps, err := scanFiles(dir, "snap-", ".ckpt")
	if err != nil {
		return info, err
	}
	for _, s := range snaps {
		fi, err := os.Stat(s.path)
		if err != nil {
			return info, fmt.Errorf("wal: %w", err)
		}
		if _, _, err := readSnapshot(s.path); err != nil {
			return info, err
		}
		info.Snapshots = append(info.Snapshots, SnapshotInfo{
			Path: s.path, LSN: s.base, Bytes: fi.Size(), ModTime: fi.ModTime(),
		})
	}
	segs, err := scanFiles(dir, "wal-", ".log")
	if err != nil {
		return info, err
	}
	for i, s := range segs {
		fi, err := os.Stat(s.path)
		if err != nil {
			return info, fmt.Errorf("wal: %w", err)
		}
		isLast := i == len(segs)-1
		base, records, tornAt, err := countSegment(s.path, isLast)
		if err != nil {
			return info, err
		}
		info.Segments = append(info.Segments, SegmentInfo{
			Path: s.path, Base: base, Records: records,
			Bytes: fi.Size(), TornTail: tornAt >= 0,
		})
	}
	return info, nil
}

// countSegment walks a segment's frames without retaining payloads.
func countSegment(path string, isLast bool) (base uint64, records int, tornAt int64, err error) {
	b, recs, torn, err := replaySegment(path, isLast)
	if err != nil {
		return 0, 0, -1, err
	}
	return b, len(recs), torn, nil
}

// WriteRawSegment writes payloads as a well-formed segment file based at
// base — a test and fuzz-corpus helper, exported so harnesses outside
// the package can fabricate directories.
func WriteRawSegment(dir string, base uint64, payloads [][]byte) (string, error) {
	buf := make([]byte, headerLen)
	copy(buf, segMagic)
	binary.BigEndian.PutUint64(buf[8:16], base)
	for _, p := range payloads {
		frame := make([]byte, frameHeader)
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(p, castagnoli))
		buf = append(buf, frame...)
		buf = append(buf, p...)
	}
	path := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", base))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
