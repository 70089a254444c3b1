package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
	"repro/internal/wal"
)

// walStep is one mutation of a seeded workload.
type walStep struct {
	name string
	do   func(d *Distributor) error
}

// walWorkload is a representative mutation mix: it touches every record
// type the log can carry except the decommission moves (those follow in
// TestWALReplayEquivalence and TestWALReplayAfterDecommission).
var walWorkload = []walStep{
	{"register alice", func(d *Distributor) error { return d.RegisterClient("alice") }},
	{"passwd alice root", func(d *Distributor) error { return d.AddPassword("alice", "root", privacy.High) }},
	{"passwd alice guest", func(d *Distributor) error { return d.AddPassword("alice", "guest", privacy.Public) }},
	{"register bob", func(d *Distributor) error { return d.RegisterClient("bob") }},
	{"passwd bob", func(d *Distributor) error { return d.AddPassword("bob", "pw", privacy.Moderate) }},
	{"upload f1", func(d *Distributor) error {
		_, err := d.Upload("alice", "root", "f1", payload(40_000, 1), privacy.Moderate, UploadOptions{Assurance: raid.RAID6, Replicas: 1})
		return err
	}},
	{"upload f2", func(d *Distributor) error {
		_, err := d.Upload("alice", "root", "f2", payload(25_000, 2), privacy.High, UploadOptions{Assurance: raid.RAID5})
		return err
	}},
	{"upload g1", func(d *Distributor) error {
		_, err := d.Upload("bob", "pw", "g1", payload(12_000, 3), privacy.Public, UploadOptions{})
		return err
	}},
	{"update f1#1", func(d *Distributor) error {
		return d.UpdateChunk("alice", "root", "f1", 1, payload(9_000, 4), UploadOptions{})
	}},
	{"remove chunk f1#0", func(d *Distributor) error { return d.RemoveChunk("alice", "root", "f1", 0) }},
	{"remove file f2", func(d *Distributor) error { return d.RemoveFile("alice", "root", "f2") }},
}

func runWALWorkload(t *testing.T, d *Distributor) {
	t.Helper()
	for _, s := range walWorkload {
		if err := s.do(d); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
}

// provCountExact fails unless d's incrementally maintained provider
// counts equal a recount of its tables from scratch.
func provCountExact(t *testing.T, who string, d *Distributor) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	have := append([]int(nil), d.provCount...)
	if err := d.recomputeProvCountLocked(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, d.provCount) {
		t.Fatalf("%s: provider counts %v, a recount of the tables gives %v", who, have, d.provCount)
	}
}

// TestWALReplayEquivalence holds the one state transition to its three
// users: after every single op of the mix — the workload above, then a
// streamed upload and two decommissions, one moving a snapshot and one
// finding its snapshot unreadable — the primary that committed the op, a
// follower fed the commit records and a fresh recovery of the primary's
// log have the same StateView and the same provider counts, and those
// counts are what a recount of the tables from scratch gives.
func TestWALReplayEquivalence(t *testing.T) {
	fleet, hooked := hookedFleet(t, 8)
	dir := t.TempDir()
	cfg := Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := New(Config{Fleet: fleet, Secret: []byte("s")})
	if err != nil {
		t.Fatal(err)
	}

	// snapshotOf names the provider and id of f1#1's snapshot blob.
	snapshotOf := func() (int, string) {
		d.mu.RLock()
		defer d.mu.RUnlock()
		e := &d.chunks[d.clients["alice"].Files["f1"].ChunkIdx[1]]
		return e.SPIndex, e.SnapVID
	}
	steps := append(append([]walStep(nil), walWorkload...),
		walStep{"stream upload g2", func(d *Distributor) error {
			_, err := d.UploadStream("bob", "pw", "g2", bytes.NewReader(payload(70_000, 5)), privacy.Public, UploadOptions{})
			return err
		}},
		walStep{"decommission, snapshot present", func(d *Distributor) error {
			sp, _ := snapshotOf()
			rep, err := d.Decommission(sp)
			if err == nil && rep.SnapshotsMoved != 1 {
				err = fmt.Errorf("snapshot not moved: %+v", rep)
			}
			return err
		}},
		walStep{"decommission, snapshot unreadable", func(d *Distributor) error {
			sp, vid := snapshotOf()
			hooked[sp].SetBeforeGet(func(key string) error {
				if key == vid {
					return provider.ErrOutage
				}
				return nil
			})
			rep, err := d.Decommission(sp)
			if sp2, _ := snapshotOf(); err == nil && (sp2 != -1 || rep.SnapshotsMoved != 0) {
				err = fmt.Errorf("snapshot not dropped: now on %d, %+v", sp2, rep)
			}
			return err
		}},
	)

	for _, s := range steps {
		if err := s.do(d); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if rep, err := follower.Follow(d); err != nil || rep.Resynced {
			t.Fatalf("%s: follower: %+v, %v", s.name, rep, err)
		}
		recovered, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: copyDir(t, dir)})
		if err != nil {
			t.Fatalf("%s: recovery: %v", s.name, err)
		}
		want := d.StateView()
		for who, other := range map[string]*Distributor{"follower": follower, "recovery": recovered} {
			if got := other.StateView(); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: %s state differs from the primary's\nprimary: %+v\n%s: %+v", s.name, who, want, who, got)
			}
			if !reflect.DeepEqual(d.Stats().PerProvider, other.Stats().PerProvider) {
				t.Fatalf("%s: %s provider counts %v, primary %v", s.name, who, other.Stats().PerProvider, d.Stats().PerProvider)
			}
			provCountExact(t, s.name+": "+who, other)
		}
		provCountExact(t, s.name+": primary", d)
		if err := recovered.Crash(); err != nil {
			t.Fatal(err)
		}
	}

	// A recovered distributor keeps serving — the surviving file reads
	// back byte-identical through the normal path — and keeps accepting
	// mutations.
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if st := d2.Metrics().WAL; !st.Enabled || st.Replayed == 0 {
		t.Fatalf("expected replayed records after a crash, got %+v", st)
	}
	gotData, err := d2.GetFile("bob", "pw", "g1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData, payload(12_000, 3)) {
		t.Fatal("recovered distributor served wrong bytes")
	}
	if _, err := d2.Upload("bob", "pw", "g3", payload(5_000, 5), privacy.Public, UploadOptions{}); err != nil {
		t.Fatalf("post-recovery upload: %v", err)
	}
}

// copyDir copies a WAL directory as a crash at this instant would leave
// it, so a recovery can run beside the distributor that owns the original.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestWALReplayAfterDecommission(t *testing.T) {
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	d, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload("alice", "root", "f", payload(60_000, 7), privacy.Moderate, UploadOptions{Assurance: raid.RAID6, Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	// UpdateChunk leaves a pre-modification snapshot blob behind, so the
	// decommission below also exercises the snapshot-move records.
	if err := d.UpdateChunk("alice", "root", "f", 0, payload(7_000, 8), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decommission(2); err != nil {
		t.Fatal(err)
	}
	want := d.StateView()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := d2.StateView(); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs after decommission replay\npre:  %+v\npost: %+v", want, got)
	}
}

func TestWALGracefulCloseReplaysNothing(t *testing.T) {
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	d, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	runWALWorkload(t, d)
	want := d.StateView()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := d.Close(ctx); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := d.Upload("alice", "root", "late", payload(100, 9), privacy.Public, UploadOptions{}); err == nil {
		t.Fatal("upload after Close must fail")
	}

	d2, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	st := d2.Metrics().WAL
	if !st.RecoveredSnapshot {
		t.Fatalf("graceful close must leave a final checkpoint, got %+v", st)
	}
	if st.Replayed != 0 {
		t.Fatalf("graceful close must leave no log tail; replayed %d records", st.Replayed)
	}
	if got := d2.StateView(); !reflect.DeepEqual(want, got) {
		t.Fatal("state recovered from the final checkpoint differs")
	}
}

func TestWALSnapshotRotation(t *testing.T) {
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	d, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	runWALWorkload(t, d) // 11 commits > 2 checkpoint cadences
	st := d.Metrics().WAL
	if st.Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2 with SnapshotEvery=4 over %d records", st.Checkpoints, st.Records)
	}
	if st.SinceCheckpoint >= 4+1 {
		t.Fatalf("SinceCheckpoint = %d, cadence not enforced", st.SinceCheckpoint)
	}
	// Rotation purged old segments: the directory never accumulates more
	// than the active segment plus the latest snapshot lineage.
	info, err := wal.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Segments) != 1 || len(info.Snapshots) != 1 {
		t.Fatalf("after rotation: %d segments, %d snapshots; want 1 and 1", len(info.Segments), len(info.Snapshots))
	}
}

func TestWALRecoverySweepsOrphans(t *testing.T) {
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	d, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload("alice", "root", "f", payload(20_000, 11), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Plant a blob no table references — the residue of a write that
	// shipped but whose commit record never became durable.
	p, err := fleet.At(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put("orphan-vid-1234", []byte("stranded")); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	st := d2.Metrics().WAL
	if st.RecoveryOrphans != 1 {
		t.Fatalf("RecoveryOrphans = %d, want 1", st.RecoveryOrphans)
	}
	if _, err := p.Get("orphan-vid-1234"); err == nil {
		t.Fatal("planted orphan survived the recovery sweep")
	}
	// Every referenced blob survived: the audit deleted only the stray.
	data, err := d2.GetFile("alice", "root", "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(payload(20_000, 11)) {
		t.Fatal("recovered file corrupted by the orphan sweep")
	}
}

func TestWALFreshDirDoesNotSweep(t *testing.T) {
	// Pointing an EMPTY WALDir at a fleet that already holds blobs must
	// not mass-delete them: the orphan sweep is gated on having actually
	// recovered state.
	fleet := testFleet(t, 8)
	d, err := New(Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload("alice", "root", "f", payload(10_000, 13), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: t.TempDir(), WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Metrics().WAL; st.RecoveryOrphans != 0 {
		t.Fatalf("fresh WALDir swept %d blobs from a populated fleet", st.RecoveryOrphans)
	}
	if _, err := d.GetFile("alice", "root", "f"); err != nil {
		t.Fatalf("in-memory distributor's blobs were deleted: %v", err)
	}
}

func TestWALCountersNotReusedAfterCrash(t *testing.T) {
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	d, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload("alice", "root", "f", payload(8_000, 17), privacy.Moderate, UploadOptions{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	preNonce, preFID := d.encNonce, d.fidSeq
	preVID := d.vids.(*prfAllocator).ctr
	d.mu.Unlock()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d2.mu.Lock()
	postNonce, postFID := d2.encNonce, d2.fidSeq
	postVID := d2.vids.(*prfAllocator).ctr
	d2.mu.Unlock()
	// An operation that aborted after planning may have consumed counters
	// past the logged watermark; the slack guarantees no AES-CTR nonce,
	// file id or virtual id is ever issued twice across a crash.
	if postNonce < preNonce+walCounterSlack {
		t.Fatalf("enc nonce %d not advanced past pre-crash %d + slack", postNonce, preNonce)
	}
	if postFID < preFID+walCounterSlack {
		t.Fatalf("fid seq %d not advanced past pre-crash %d + slack", postFID, preFID)
	}
	if postVID < preVID+walCounterSlack {
		t.Fatalf("vid ctr %d not advanced past pre-crash %d + slack", postVID, preVID)
	}
}

func TestWALCorruptionFailsStartupDescriptively(t *testing.T) {
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	d, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload("alice", "root", "f", payload(30_000, 19), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF // mid-log, not a torn tail
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err == nil {
		t.Fatal("startup over a corrupt log must fail")
	}
	if !strings.Contains(err.Error(), "wal") {
		t.Fatalf("error does not name the wal: %v", err)
	}

	// The offline validator refuses the same directory.
	if _, verr := ValidateWALDir(dir); verr == nil {
		t.Fatal("ValidateWALDir accepted a corrupt directory")
	}
}

func TestWALWrongFleetRejected(t *testing.T) {
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	d, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload("alice", "root", "f", payload(30_000, 23), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Close(ctx); err != nil {
		t.Fatal(err)
	}

	small := testFleet(t, 2)
	_, err = New(Config{Fleet: small, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err == nil {
		t.Fatal("recovery against a smaller fleet must fail")
	}
	if !strings.Contains(err.Error(), "fleet") {
		t.Fatalf("error does not explain the fleet mismatch: %v", err)
	}
}

func TestValidateWALDirReport(t *testing.T) {
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	d, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	runWALWorkload(t, d)
	view := d.StateView()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}

	rep, err := ValidateWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records == 0 {
		t.Fatalf("report shows no records: %+v", rep)
	}
	if rep.Gen != view.Gen {
		t.Fatalf("replayed gen %d, live was %d", rep.Gen, view.Gen)
	}
	if rep.Clients != 2 {
		t.Fatalf("Clients = %d, want 2", rep.Clients)
	}
	if rep.Files != 2 { // f1 and g1 survive the workload
		t.Fatalf("Files = %d, want 2", rep.Files)
	}
	if rep.TailTruncated {
		t.Fatal("clean crash at SyncAlways must not report a torn tail")
	}
	if !reflect.DeepEqual(rep.CodecVersions, []int{walCodecVersion}) {
		t.Fatalf("CodecVersions = %v: the encoder writes version %d only", rep.CodecVersions, walCodecVersion)
	}
}

func TestWALBugSkipSyncLosesCommits(t *testing.T) {
	// The planted lost-commit bug: records are acknowledged but never
	// fsynced, so a crash forgets everything since the last checkpoint.
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	d, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways, WALBugSkipSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	d2, err := New(Config{Fleet: fleet, Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.StateView().Files) != 0 {
		t.Fatal("unexpected files")
	}
	d2.mu.Lock()
	_, registered := d2.clients["alice"]
	d2.mu.Unlock()
	if registered {
		t.Fatal("BugSkipSync did not lose the acknowledged commit — the planted bug is gone")
	}
}

// TestTombstonesKeepNothing: a removed chunk's row is never compacted
// away, so whatever it keeps it keeps forever. It must keep only the
// marker — no positions list, no AES key, no names — on the live commit
// path, after WAL replay, and on a follower applying the replicated
// records; and the three tables must stay DeepEqual.
func TestTombstonesKeepNothing(t *testing.T) {
	fleet := testFleet(t, 8)
	dir := t.TempDir()
	cfg := Config{Fleet: fleet, Secret: []byte("s"), MisleadSeed: 5, WALDir: dir, WALSync: wal.SyncAlways}
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := New(Config{Fleet: fleet, Secret: []byte("s")})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	key := []byte("0123456789abcdef0123456789abcdef")
	for name, opts := range map[string]UploadOptions{
		"decoys":   {MisleadFraction: 0.25, Assurance: raid.RAID6},
		"sealed":   {EncryptKey: key, Replicas: 1},
		"survivor": {MisleadFraction: 0.1},
	} {
		if _, err := primary.Upload("alice", "root", name, payload(40_000, 3), privacy.High, opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.UpdateChunk("alice", "root", "sealed", 1, payload(5_000, 4), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := primary.RemoveChunk("alice", "root", "sealed", 1); err != nil {
		t.Fatal(err)
	}
	if err := primary.RemoveChunk("alice", "root", "survivor", 0); err != nil {
		t.Fatal(err)
	}
	if err := primary.RemoveFile("alice", "root", "decoys"); err != nil {
		t.Fatal(err)
	}
	if err := primary.RemoveFile("alice", "root", "sealed"); err != nil {
		t.Fatal(err)
	}
	if rep, err := follower.Follow(primary); err != nil || rep.Resynced {
		t.Fatalf("follower fell back to a snapshot; the record-apply path went untested: %+v, %v", rep, err)
	}
	live := primary.chunks
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	recovered, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}

	bare := chunkEntry{CPIndex: -1, SPIndex: -1}
	dead := 0
	for i := range live {
		if live[i].CPIndex >= 0 {
			continue
		}
		dead++
		if e := &live[i]; !reflect.DeepEqual(*e, bare) {
			t.Errorf("tombstone %d still holds file %q, vid %q, %d decoy positions, a %d-byte key",
				i, e.Filename, e.VirtualID, e.Mislead.Count(), len(e.EncKey))
		}
	}
	if want := 5 + 5 + 1; dead != want { // 40 000 B at PL3 is 5 chunks a file
		t.Fatalf("%d tombstones, want %d", dead, want)
	}
	if !reflect.DeepEqual(recovered.chunks, live) {
		t.Error("chunk table after WAL replay differs from the live one")
	}
	if !reflect.DeepEqual(follower.chunks, live) {
		t.Error("follower's chunk table after record apply differs from the primary's")
	}
}

// TestRecoversV1WALDirectory opens a WAL directory written by the last
// build whose codec was version 1 (testdata/wal-v1: a checkpoint taken
// after a defended upload, an encrypted upload and its removal, then an
// update and a line-decoy upload in the log tail). It must recover, its
// position lists must arrive intact in the compact form, the removed
// file's rows — stored in full, key included, by that build — must come
// back as bare tombstones, and the first checkpoint must leave a
// directory that is version 2 throughout.
func TestRecoversV1WALDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snap-0000000000000005.ckpt", "wal-0000000000000005.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "wal-v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ValidateWALDir(dir)
	if err != nil {
		t.Fatalf("offline validation of the v1 directory: %v", err)
	}
	if !reflect.DeepEqual(rep.CodecVersions, []int{1}) || !rep.HasSnapshot || rep.Records != 2 {
		t.Fatalf("v1 directory reported as %+v", rep)
	}

	d, err := New(Config{Fleet: testFleet(t, 8), Secret: []byte("s"), WALDir: dir, WALSync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("recovery of the v1 directory: %v", err)
	}
	decoys := map[string][]int{"decoys": {2048, 300}, "lines": {4}} // per chunk; 12 000 B and "x,9\n"
	files := d.clients["alice"].Files
	if len(files) != len(decoys) {
		t.Fatalf("recovered %d files, want %d", len(files), len(decoys))
	}
	for name, want := range decoys {
		fe := files[name]
		if fe == nil || len(fe.ChunkIdx) != len(want) {
			t.Fatalf("file %q: recovered as %+v", name, fe)
		}
		for serial, idx := range fe.ChunkIdx {
			e := &d.chunks[idx]
			if e.Mislead.Count() != want[serial] {
				t.Errorf("%s#%d: %d decoy positions, want %d", name, serial, e.Mislead.Count(), want[serial])
			}
			if err := e.Mislead.Validate(e.PayloadLen); err != nil {
				t.Errorf("%s#%d: recovered positions do not fit the %d-byte payload: %v", name, serial, e.PayloadLen, err)
			}
		}
	}
	for i := range d.chunks {
		if e := &d.chunks[i]; e.CPIndex < 0 && !reflect.DeepEqual(*e, chunkEntry{CPIndex: -1, SPIndex: -1}) {
			t.Errorf("tombstone %d recovered with file %q and a %d-byte key", i, e.Filename, len(e.EncKey))
		}
	}

	// Close checkpoints: from here on the directory holds v2 only.
	if err := d.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, err = ValidateWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.CodecVersions, []int{2}) || rep.Files != 2 {
		t.Fatalf("after a checkpoint the directory reports %+v", rep)
	}
}
