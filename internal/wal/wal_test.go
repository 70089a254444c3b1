package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Log, Recovered) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i%97))))
	}
	return out
}

func TestRoundtripPerPolicy(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncGrouped, SyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, rec := mustOpen(t, dir, Options{Policy: pol})
			if rec.Snapshot != nil || len(rec.Records) != 0 {
				t.Fatalf("fresh dir recovered state: %+v", rec)
			}
			want := payloads(40)
			for _, p := range want {
				if err := l.Append(p); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// A graceful close flushes under every policy.
			l2, rec2 := mustOpen(t, dir, Options{Policy: pol})
			defer l2.Close()
			if len(rec2.Records) != len(want) {
				t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(want))
			}
			for i, p := range want {
				if !bytes.Equal(rec2.Records[i], p) {
					t.Fatalf("record %d mismatch", i)
				}
			}
			if rec2.TailTruncated {
				t.Fatal("clean log reported a torn tail")
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "Grouped": SyncGrouped, " off ": SyncOff,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

func TestCheckpointRotatesAndPurges(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	for _, p := range payloads(10) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint([]byte("state-at-10")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for _, p := range payloads(3) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.NextLSN != 13 || st.SegmentBase != 10 || st.SinceCheckpoint != 3 {
		t.Fatalf("stats after rotate: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(info.Segments) != 1 || info.Segments[0].Base != 10 || info.Segments[0].Records != 3 {
		t.Fatalf("segments after purge: %+v", info.Segments)
	}
	if len(info.Snapshots) != 1 || info.Snapshots[0].LSN != 10 {
		t.Fatalf("snapshots after purge: %+v", info.Snapshots)
	}

	_, rec := mustOpen(t, dir, Options{Policy: SyncAlways})
	if string(rec.Snapshot) != "state-at-10" || rec.SnapshotLSN != 10 || len(rec.Records) != 3 {
		t.Fatalf("recovered: snap=%q lsn=%d records=%d", rec.Snapshot, rec.SnapshotLSN, len(rec.Records))
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	want := payloads(5)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-0000000000000000.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: a frame header claiming more bytes than follow.
	torn := append(append([]byte{}, data...), 0xff, 0x00, 0x00, 0x00, 1, 2, 3)
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// ReadAll reports without repairing.
	ra, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll on torn tail: %v", err)
	}
	if !ra.TailTruncated || len(ra.Records) != 5 {
		t.Fatalf("ReadAll: torn=%v records=%d", ra.TailTruncated, len(ra.Records))
	}
	if fi, _ := os.Stat(seg); fi.Size() != int64(len(torn)) {
		t.Fatal("ReadAll mutated the segment")
	}

	// Open truncates and the log is appendable again.
	l2, rec := mustOpen(t, dir, Options{Policy: SyncAlways})
	if !rec.TailTruncated || len(rec.Records) != 5 {
		t.Fatalf("Open: torn=%v records=%d", rec.TailTruncated, len(rec.Records))
	}
	if fi, _ := os.Stat(seg); fi.Size() != int64(len(data)) {
		t.Fatalf("torn bytes not truncated: %d != %d", fi.Size(), len(data))
	}
	if err := l2.Append([]byte("after-repair")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3 := mustOpen(t, dir, Options{Policy: SyncAlways})
	if len(rec3.Records) != 6 || string(rec3.Records[5]) != "after-repair" {
		t.Fatalf("post-repair replay: %d records", len(rec3.Records))
	}
}

func TestMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	for _, p := range payloads(8) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-0000000000000000.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the file: the frame is
	// complete, so this is corruption, not a torn tail.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, Options{Policy: SyncAlways})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt mid-log record: %v", err)
	}
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("CRC")) {
		t.Fatalf("error does not name the CRC failure: %v", err)
	}
	if _, err := ReadAll(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAll on corrupt record: %v", err)
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]byte("good-state")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snap-0000000000000001.ckpt")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Policy: SyncAlways}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt snapshot: %v", err)
	}
}

func TestBrokenChainRejected(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteRawSegment(dir, 0, [][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	// Next segment claims base 5 but only 2 records precede it.
	if _, err := WriteRawSegment(dir, 5, [][]byte{[]byte("c")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Policy: SyncAlways}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on broken chain: %v", err)
	}
}

func TestCrashDropsUnsyncedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("volatile-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("volatile-2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir, Options{Policy: SyncOff})
	if len(rec.Records) != 1 || string(rec.Records[0]) != "durable" {
		t.Fatalf("crash kept unsynced records: %d recovered", len(rec.Records))
	}
}

func TestSyncAlwaysSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	want := payloads(7)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir, Options{Policy: SyncAlways})
	if len(rec.Records) != len(want) {
		t.Fatalf("SyncAlways lost records across a crash: %d of %d", len(rec.Records), len(want))
	}
}

func TestBugSkipSyncLosesAcknowledgedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways, BugSkipSync: true})
	for _, p := range payloads(7) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir, Options{Policy: SyncAlways})
	if len(rec.Records) != 0 {
		t.Fatalf("planted BugSkipSync still recovered %d records", len(rec.Records))
	}
}

func TestGroupedFlusherMakesRecordsDurable(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncGrouped, GroupInterval: time.Millisecond})
	if err := l.Append([]byte("grouped-record")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("grouped flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, dir, Options{Policy: SyncGrouped})
	if len(rec.Records) != 1 {
		t.Fatalf("flushed record lost across crash: %d recovered", len(rec.Records))
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	defer l.Close()
	if err := l.Append(make([]byte, maxRecord+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := l.Checkpoint([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v", err)
	}
	if _, err := l.Since(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Since after Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestInspectTornTailReadOnly(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteRawSegment(dir, 0, [][]byte{[]byte("ok")}); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal-0000000000000000.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0}); err != nil { // short frame header
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(seg)
	info, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(info.Segments) != 1 || !info.Segments[0].TornTail || info.Segments[0].Records != 1 {
		t.Fatalf("Inspect torn tail: %+v", info.Segments)
	}
	after, _ := os.Stat(seg)
	if before.Size() != after.Size() {
		t.Fatal("Inspect mutated the segment")
	}
}

// dirNames lists dir's file names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func appendAll(t *testing.T, l *Log, ps [][]byte) {
	t.Helper()
	for _, p := range ps {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
}

func wantRecords(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d is %q, want %q", what, i, got[i], want[i])
		}
	}
}

// TestSinceAcrossCheckpointKeepsStagedFrames: under SyncGrouped the
// frames appended since the last flush sit in the append buffer when a
// checkpoint rotates the log. A tailed log writes them into the segment
// it keeps, so a reader behind the checkpoint still reads them.
func TestSinceAcrossCheckpointKeepsStagedFrames(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncGrouped, GroupInterval: time.Hour})
	defer l.Close()
	ps := payloads(5)
	appendAll(t, l, ps[:1])
	got, err := l.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, "Since(0)", got, ps[:1])
	appendAll(t, l, ps[1:4]) // staged: the flusher's hour never comes
	if err := l.Checkpoint([]byte("state-at-4")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, ps[4:])
	got, err = l.Since(1)
	if err != nil {
		t.Fatalf("Since(1) across the checkpoint: %v", err)
	}
	wantRecords(t, "Since(1)", got, ps[1:])
}

// TestCheckpointFilesTailedAndNot: a log nobody tails leaves exactly the
// snapshot and the fresh segment, as before tailing existed; a tailed
// one also keeps the one segment the checkpoint superseded, until the
// next checkpoint.
func TestCheckpointFilesTailedAndNot(t *testing.T) {
	for _, tailed := range []bool{false, true} {
		t.Run(fmt.Sprintf("tailed=%v", tailed), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
			defer l.Close()
			appendAll(t, l, payloads(10))
			if tailed {
				if _, err := l.Since(10); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Checkpoint([]byte("state-at-10")); err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, payloads(3))
			want := []string{"snap-000000000000000a.ckpt", "wal-000000000000000a.log"}
			if tailed {
				want = []string{"snap-000000000000000a.ckpt", "wal-0000000000000000.log", "wal-000000000000000a.log"}
			}
			if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("files after a checkpoint: %v, want %v", got, want)
			}
			if err := l.Checkpoint([]byte("state-at-13")); err != nil {
				t.Fatal(err)
			}
			want = []string{"snap-000000000000000d.ckpt", "wal-000000000000000d.log"}
			if tailed {
				want = []string{"snap-000000000000000d.ckpt", "wal-000000000000000a.log", "wal-000000000000000d.log"}
			}
			if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("files after a second checkpoint: %v, want %v", got, want)
			}
		})
	}
}

// TestSinceTrimmed: a position older than every segment on disk answers
// ErrTrimmed — purged by an untailed checkpoint, or by a tailed log's
// second one — and so does a segment purged between the listing and
// its read.
func TestSinceTrimmed(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	defer l.Close()
	ps := payloads(12)
	appendAll(t, l, ps[:4])
	if err := l.Checkpoint([]byte("state-at-4")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Since(3); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("Since(3) after an untailed checkpoint: %v", err)
	}
	appendAll(t, l, ps[4:8])
	if err := l.Checkpoint([]byte("state-at-8")); err != nil { // tailed now: keeps [4, 8)
		t.Fatal(err)
	}
	appendAll(t, l, ps[8:])
	got, err := l.Since(5)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, "Since(5)", got, ps[5:])

	segs, err := scanFiles(dir, "wal-", ".log")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segs[0].path); err != nil { // a checkpoint purges it mid-read
		t.Fatal(err)
	}
	if _, err := readSince(segs, 5, 12); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("segment purged while read: %v", err)
	}
	if _, err := l.Since(5); !errors.Is(err, ErrTrimmed) {
		t.Fatalf("Since(5) once its segment is gone: %v", err)
	}
	got, err = l.Since(8)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, "Since(8)", got, ps[8:])
}

// TestSinceAhead: the log's end answers no records; past it is refused.
func TestSinceAhead(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncOff})
	defer l.Close()
	appendAll(t, l, payloads(3))
	if got, err := l.Since(3); err != nil || len(got) != 0 {
		t.Fatalf("Since(end) = %d records, %v", len(got), err)
	}
	if _, err := l.Since(4); !errors.Is(err, ErrAhead) {
		t.Fatalf("Since past the end: %v", err)
	}
}

// TestKeptSegmentRecovers: Open and ReadAll skip the superseded segment a
// tailed log keeps, and recover exactly what a log nobody tailed does.
func TestKeptSegmentRecovers(t *testing.T) {
	run := func(tailed bool) (Recovered, Recovered) {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{Policy: SyncGrouped, GroupInterval: time.Hour})
		if tailed {
			if _, err := l.Since(0); err != nil {
				t.Fatal(err)
			}
		}
		appendAll(t, l, payloads(6))
		if err := l.Checkpoint([]byte("state-at-6")); err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, payloads(2))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if n := len(dirNames(t, dir)); tailed != (n == 3) {
			t.Fatalf("tailed=%v left %d files", tailed, n)
		}
		ra, err := ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		l2, rec := mustOpen(t, dir, Options{Policy: SyncAlways})
		l2.Close()
		return ra, rec
	}
	plainRA, plainOpen := run(false)
	keptRA, keptOpen := run(true)
	for what, got := range map[string]Recovered{"ReadAll": keptRA, "Open": keptOpen, "plain Open": plainOpen} {
		if !reflect.DeepEqual(got, plainRA) {
			t.Fatalf("%s recovered %+v, want %+v", what, got, plainRA)
		}
	}
	if string(plainRA.Snapshot) != "state-at-6" || plainRA.SnapshotLSN != 6 || len(plainRA.Records) != 2 {
		t.Fatalf("recovered %+v", plainRA)
	}
}

// TestSinceConcurrentWithAppends tails a log from one goroutine while
// another appends and checkpoints: every record Since returns is the one
// appended at that position, and a reader that falls two checkpoints
// behind is told so (ErrTrimmed) rather than handed a gap.
func TestSinceConcurrentWithAppends(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Policy: SyncGrouped, GroupInterval: time.Millisecond})
	defer l.Close()
	const total = 600
	want := payloads(total)
	done := make(chan error, 1)
	go func() {
		for i, p := range want {
			if err := l.Append(p); err != nil {
				done <- err
				return
			}
			if i%25 == 24 {
				if err := l.Checkpoint([]byte("state")); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	var pos uint64
	for writing := true; writing || pos < total; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		recs, err := l.Since(pos)
		if errors.Is(err, ErrTrimmed) {
			pos = l.Stats().SegmentBase // a position the log surely holds
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range recs {
			if !bytes.Equal(r, want[pos+uint64(j)]) {
				t.Fatalf("record at lsn %d is %q, want %q", pos+uint64(j), r, want[pos+uint64(j)])
			}
		}
		pos += uint64(len(recs))
	}
}
