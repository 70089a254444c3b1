package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/privacy"
	"repro/internal/wal"
)

// statsEqual compares two placement snapshots field by field; the
// PerProvider counts are the incremental bump arithmetic's ledger, so a
// single miscounted placement fails here.
func statsEqual(t *testing.T, phase string, p, s Stats) {
	t.Helper()
	if p.Clients != s.Clients || p.Files != s.Files || p.Chunks != s.Chunks ||
		p.ParityShards != s.ParityShards || p.MirrorShards != s.MirrorShards ||
		p.Snapshots != s.Snapshots || p.Stripes != s.Stripes {
		t.Fatalf("%s: stats diverged\nprimary   %+v\nsecondary %+v", phase, p, s)
	}
	if len(p.PerProvider) != len(s.PerProvider) {
		t.Fatalf("%s: provider count width %d vs %d", phase, len(p.PerProvider), len(s.PerProvider))
	}
	for i := range p.PerProvider {
		if p.PerProvider[i] != s.PerProvider[i] {
			t.Fatalf("%s: provider %d count %d on primary, %d on secondary\nprimary   %v\nsecondary %v",
				phase, i, p.PerProvider[i], s.PerProvider[i], p.PerProvider, s.PerProvider)
		}
	}
}

// converged fails unless f holds primary's whole log and the same state.
func converged(t *testing.T, phase string, primary, f *Distributor, rep FollowReport) {
	t.Helper()
	if next := primary.WALHealth().NextLSN; rep.LSN != next {
		t.Fatalf("%s: follower at lsn %d, primary's log ends at %d", phase, rep.LSN, next)
	}
	if p, s := primary.StateView(), f.StateView(); !reflect.DeepEqual(p, s) {
		t.Fatalf("%s: state diverged\nprimary   %+v\nsecondary %+v", phase, p, s)
	}
	statsEqual(t, phase, primary.Stats(), f.Stats())
}

// TestClusterIncrementalReplication proves the happy path never falls
// back to a full snapshot: every mutation reaches the follower as the
// primary's own WAL record, and the follower's tables (including the
// incrementally maintained per-provider counts) match the primary's
// after each phase.
func TestClusterIncrementalReplication(t *testing.T) {
	_, primary, followers := testCluster(t, 1, 6, 0)
	f := followers[0]
	if err := primary.RegisterClient("ann"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AddPassword("ann", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, err := primary.Upload("ann", "pw", name, payload(40_000, int64(i)), privacy.Moderate, UploadOptions{Replicas: i % 2}); err != nil {
			t.Fatal(err)
		}
	}
	rep := follow(t, f, primary)
	converged(t, "after uploads", primary, f, rep)
	records := rep.Records

	if err := primary.UpdateChunk("ann", "pw", "f1", 0, payload(9_000, 99), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := primary.RemoveChunk("ann", "pw", "f2", 1); err != nil {
		t.Fatal(err)
	}
	if err := primary.RemoveFile("ann", "pw", "f3"); err != nil {
		t.Fatal(err)
	}
	rep = follow(t, f, primary)
	converged(t, "after update/remove", primary, f, rep)
	if rep.Resynced || rep.Records != 3 {
		t.Fatalf("update/remove phase: %+v, want 3 records and no resync", rep)
	}
	if records += rep.Records; uint64(records) != rep.LSN {
		t.Fatalf("follower applied %d records of %d", records, rep.LSN)
	}

	// The replicated tables must actually serve: byte-exact reads off
	// the follower with the primary down.
	want, err := primary.GetFile("ann", "pw", "f0")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	got, err := f.GetFile("ann", "pw", "f0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("follower read diverged: %d vs %d bytes", len(got), len(want))
	}
}

// TestClusterProvCountConvergence drives every placement-moving op the
// WAL records cover — including a decommission, whose moves replicate
// as move_chunk/move_mirror/move_snapshot/move_parity records — and
// checks the follower's incremental provider counts stay exact.
func TestClusterProvCountConvergence(t *testing.T) {
	_, primary, followers := testCluster(t, 1, 8, 0)
	f := followers[0]
	if err := primary.RegisterClient("kim"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AddPassword("kim", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("g%d", i)
		if _, err := primary.Upload("kim", "pw", name, payload(60_000, int64(10+i)), privacy.High, UploadOptions{Replicas: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Updates create snapshots of the old chunks; move/drop records then
	// have snapshot placements to carry.
	if err := primary.UpdateChunk("kim", "pw", "g0", 1, payload(7_000, 77), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := primary.UpdateChunk("kim", "pw", "g1", 0, payload(6_000, 78), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Decommission(2); err != nil {
		t.Fatal(err)
	}
	if err := primary.RemoveFile("kim", "pw", "g2"); err != nil {
		t.Fatal(err)
	}
	rep := follow(t, f, primary)
	if rep.Resynced {
		t.Fatalf("expected pure incremental replication, got %+v", rep)
	}
	// Both members ran the same transitions: same state, and counts that
	// are what a recount of the tables gives.
	converged(t, "after decommission", primary, f, rep)
	provCountExact(t, "primary", primary)
	provCountExact(t, "secondary", f)
}

// TestClusterLagSurfacing: a follower that stops following while the
// primary commits trails it by exactly the records it missed, and while
// its position is still kept it heals by reading them — across a
// checkpoint too, since a tailed log keeps the segment a checkpoint
// supersedes. One checkpoint further behind, the position is trimmed and
// the follower resyncs from a snapshot.
func TestClusterLagSurfacing(t *testing.T) {
	_, primary, followers := testCluster(t, 2, 6, 4)
	current, behind := followers[0], followers[1]
	if err := primary.RegisterClient("lee"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AddPassword("lee", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	upload := func(name string, seed int64) {
		t.Helper()
		if _, err := primary.Upload("lee", "pw", name, payload(30_000, seed), privacy.Moderate, UploadOptions{}); err != nil {
			t.Fatal(err)
		}
		follow(t, current, primary)
	}
	upload("base", 5)
	mark := follow(t, behind, primary)
	for i := 0; i < 3; i++ { // the log checkpoints at record 4
		upload(fmt.Sprintf("missed-%d", i), int64(6+i))
	}
	if lag, lead := behind.StateView().Gen, primary.StateView().Gen; lag >= lead {
		t.Fatalf("lagging follower generation %d not behind primary %d", lag, lead)
	}
	rep := follow(t, behind, primary)
	if rep.Resynced || rep.Records != 3 || rep.LSN != mark.LSN+3 {
		t.Fatalf("healing from lsn %d: %+v, want the 3 missed records", mark.LSN, rep)
	}
	converged(t, "healed", primary, behind, rep)

	for i := 0; i < 8; i++ { // two more checkpoints trim the position
		upload(fmt.Sprintf("gone-%d", i), int64(20+i))
	}
	if rep = follow(t, behind, primary); !rep.Resynced {
		t.Fatalf("a position two checkpoints behind healed without a resync: %+v", rep)
	}
	converged(t, "resynced", primary, behind, rep)
	want, err := primary.GetFile("lee", "pw", "gone-7")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	for who, f := range map[string]*Distributor{"current": current, "healed": behind} {
		if got, err := f.GetFile("lee", "pw", "gone-7"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s follower served stale or corrupt bytes: %v", who, err)
		}
	}
}

// TestClusterSnapshotFallback covers the three ways Follow falls back to
// a full snapshot — a late joiner whose position a checkpoint trimmed, a
// joiner with state of its own that a record refuses to apply to, and a
// follower ahead of a primary that lost records in a crash — and checks
// that each costs exactly one resync, after which replication is
// incremental again.
func TestClusterSnapshotFallback(t *testing.T) {
	fleet := testFleet(t, 6)
	cfg := Config{Fleet: fleet, Secret: []byte{1}, WALDir: t.TempDir(), WALSync: wal.SyncOff, SnapshotEvery: 2}
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	upload := func(p *Distributor, name string, seed int64) {
		t.Helper()
		if _, err := p.Upload("pat", "pw", name, payload(20_000, seed), privacy.Moderate, UploadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	join := func(p *Distributor) {
		t.Helper()
		if err := p.RegisterClient("pat"); err != nil {
			t.Fatal(err)
		}
		if err := p.AddPassword("pat", "pw", privacy.High); err != nil {
			t.Fatal(err)
		}
	}
	join(primary)
	upload(primary, "pre", 9)

	// Late join: nobody tailed the log, so the checkpoint at lsn 2 purged
	// the records from lsn 0 on.
	late, _ := New(Config{Fleet: fleet, Secret: []byte{2}})
	rep := follow(t, late, primary)
	if !rep.Resynced || rep.Records != 0 {
		t.Fatalf("late join: %+v, want one resync", rep)
	}
	converged(t, "late join", primary, late, rep)
	upload(primary, "post", 10) // the log checkpoints again, keeping lsn 3
	if rep = follow(t, late, primary); rep.Resynced || rep.Records != 1 {
		t.Fatalf("after the late join: %+v, want one record", rep)
	}
	converged(t, "after the late join", primary, late, rep)

	// A joiner with state of its own: the primary's first record
	// (registering pat) refuses to apply to it.
	otherFleet := testFleet(t, 6)
	other, err := New(Config{Fleet: otherFleet, Secret: []byte{4}, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	join(other)
	upload(other, "theirs", 11)
	diverged, _ := New(Config{Fleet: otherFleet, Secret: []byte{3}})
	if err := diverged.RegisterClient("pat"); err != nil {
		t.Fatal(err)
	}
	if rep = follow(t, diverged, other); !rep.Resynced || rep.Records != 0 {
		t.Fatalf("diverged joiner: %+v, want one resync", rep)
	}
	converged(t, "diverged join", other, diverged, rep)
	upload(other, "more", 12)
	if rep = follow(t, diverged, other); rep.Resynced || rep.Records != 1 {
		t.Fatalf("after the diverged join: %+v, want one record", rep)
	}

	// SyncOff: a crash loses the record the follower already applied, so
	// the recovered log ends before the follower's position.
	upload(primary, "lost", 13)
	follow(t, late, primary)
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if next := recovered.WALHealth().NextLSN; next >= late.followLSN {
		t.Fatalf("the crash lost nothing (log ends at %d, follower at %d): the case needs a loss", next, late.followLSN)
	}
	if rep = follow(t, late, recovered); !rep.Resynced {
		t.Fatalf("follower ahead of its primary's log: %+v, want a resync", rep)
	}
	converged(t, "ahead", recovered, late, rep)
	upload(recovered, "after", 14)
	if rep = follow(t, late, recovered); rep.Resynced || rep.Records != 1 {
		t.Fatalf("after the crash: %+v, want one record", rep)
	}
}

// TestFollowEveryOpAcrossCheckpoints: a follower that follows after every
// op never resyncs, however often its primary checkpoints, because a
// tailed log keeps the segment each checkpoint supersedes.
func TestFollowEveryOpAcrossCheckpoints(t *testing.T) {
	_, primary, followers := testCluster(t, 1, 6, 8)
	f := followers[0]
	if err := primary.RegisterClient("ivy"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AddPassword("ivy", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	var live []string
	ops, records := 0, 0
	for i := 0; ops < 120; i++ {
		var err error
		switch {
		case i%5 == 4 && len(live) > 1:
			err = primary.RemoveFile("ivy", "pw", live[0])
			live = live[1:]
		case i%5 == 2 && len(live) > 0:
			err = primary.UpdateChunk("ivy", "pw", live[len(live)-1], 0, payload(300, int64(i)), UploadOptions{})
		default:
			name := fmt.Sprintf("f%03d", i)
			_, err = primary.Upload("ivy", "pw", name, payload(2_000, int64(i)), privacy.Low, UploadOptions{})
			live = append(live, name)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		ops++
		rep := follow(t, f, primary)
		if rep.Resynced {
			t.Fatalf("op %d: the follower resynced: %+v", i, rep)
		}
		records += rep.Records
	}
	if ckpts := primary.WALHealth().Checkpoints; ckpts < 10 {
		t.Fatalf("only %d checkpoints in %d ops: the case needs many", ckpts, ops)
	}
	rep := follow(t, f, primary)
	converged(t, "after every op", primary, f, rep)
	if uint64(records) != rep.LSN {
		t.Fatalf("applied %d records by the op, the log holds %d", records, rep.LSN)
	}
	provCountExact(t, "follower", f)
}

// TestValidateWALDirSkipsKeptSegment: a followed primary's WAL directory
// also holds the segment its last checkpoint superseded. A recovery and
// the offline validator both skip it and agree with the live tables.
func TestValidateWALDirSkipsKeptSegment(t *testing.T) {
	cfg, primary, followers := testCluster(t, 1, 8, 4)
	for _, s := range walWorkload {
		if err := s.do(primary); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		follow(t, followers[0], primary)
	}
	rec, err := wal.ReadAll(cfg.WALDir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := wal.Inspect(cfg.WALDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Segments) != 2 || info.Segments[0].Base >= rec.SnapshotLSN {
		t.Fatalf("segments %+v, snapshot at lsn %d: want a kept superseded segment", info.Segments, rec.SnapshotLSN)
	}
	rep, err := ValidateWALDir(cfg.WALDir)
	if err != nil {
		t.Fatal(err)
	}
	want := primary.StateView()
	if rep.Gen != want.Gen || rep.SnapshotLSN != rec.SnapshotLSN || rep.Records != len(rec.Records) || rep.Files != len(want.Files) {
		t.Fatalf("validator: %+v, live gen %d with %d files", rep, want.Gen, len(want.Files))
	}
	cfg.WALDir = copyDir(t, cfg.WALDir)
	recovered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := recovered.StateView(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery from a dir with a kept segment differs\nlive      %+v\nrecovered %+v", want, got)
	}
}

// TestFollowWhileWriting follows a primary from one goroutine while
// others upload and read the follower: the follower converges, and every
// follower read in between is byte-exact or a clean not-found.
func TestFollowWhileWriting(t *testing.T) {
	_, primary, followers := testCluster(t, 1, 6, 8)
	f := followers[0]
	if err := primary.RegisterClient("amy"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AddPassword("amy", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	const files = 24
	data := func(i int) []byte { return payload(3_000+i*100, int64(i)) }
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < files; i += 2 {
				if _, err := primary.Upload("amy", "pw", fmt.Sprintf("f%02d", i), data(i), privacy.Low, UploadOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; ; i = (i + 1) % files {
			select {
			case <-stop:
				return
			default:
			}
			got, err := f.GetFile("amy", "pw", fmt.Sprintf("f%02d", i))
			if err == nil && !bytes.Equal(got, data(i)) {
				t.Errorf("follower served f%02d with wrong bytes", i)
			}
			if err != nil && !errors.Is(err, ErrNoSuchFile) && !errors.Is(err, ErrAuth) {
				t.Errorf("follower read of f%02d: %v", i, err)
			}
		}
	}()
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	for writing := true; writing; {
		select {
		case <-writersDone:
			writing = false
		default:
		}
		follow(t, f, primary)
	}
	close(stop)
	<-readerDone
	converged(t, "after concurrent writes", primary, f, follow(t, f, primary))
}
