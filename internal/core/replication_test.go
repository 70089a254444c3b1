package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/privacy"
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

// TestClusterIncrementalReplication proves the happy path never falls
// back to a full snapshot: every mutation ships as one commit record,
// and the secondary's tables (including the incrementally maintained
// per-provider counts) match the primary's after each phase.
func TestClusterIncrementalReplication(t *testing.T) {
	c, _ := testCluster(t, 2, 6)
	if err := c.RegisterClient("ann"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPassword("ann", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, err := c.Upload("ann", "pw", name, payload(40_000, int64(i)), privacy.Moderate, UploadOptions{Replicas: i % 2}); err != nil {
			t.Fatal(err)
		}
	}
	statsEqual(t, "after uploads", c.dists[0].Stats(), c.dists[1].Stats())

	if err := c.dists[0].UpdateChunk("ann", "pw", "f1", 0, payload(9_000, 99), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.dists[0].RemoveChunk("ann", "pw", "f2", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.dists[0].RemoveFile("ann", "pw", "f3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "after update/remove", c.dists[0].Stats(), c.dists[1].Stats())

	rs := c.ReplicationStats()
	if rs.SnapshotSyncs != 0 {
		t.Fatalf("happy path took %d snapshot syncs (want 0): %+v", rs.SnapshotSyncs, rs)
	}
	if rs.RecordsReplicated == 0 || rs.Head == 0 {
		t.Fatalf("no incremental records flowed: %+v", rs)
	}
	if rs.RecordsReplicated != rs.Head {
		t.Fatalf("secondary applied %d of %d records", rs.RecordsReplicated, rs.Head)
	}

	// The replicated tables must actually serve: byte-exact reads off
	// the follower with the primary down.
	want, err := c.dists[0].GetFile("ann", "pw", "f0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetFile("ann", "pw", "f0")
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
	c, _ := testCluster(t, 2, 8)
	if err := c.RegisterClient("kim"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPassword("kim", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("g%d", i)
		if _, err := c.Upload("kim", "pw", name, payload(60_000, int64(10+i)), privacy.High, UploadOptions{Replicas: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Updates create snapshots of the old chunks; move/drop records then
	// have snapshot placements to carry.
	if err := c.dists[0].UpdateChunk("kim", "pw", "g0", 1, payload(7_000, 77), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.dists[0].UpdateChunk("kim", "pw", "g1", 0, payload(6_000, 78), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.dists[0].Decommission(2); err != nil {
		t.Fatal(err)
	}
	if err := c.dists[0].RemoveFile("kim", "pw", "g2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	statsEqual(t, "after decommission", c.dists[0].Stats(), c.dists[1].Stats())
	if rs := c.ReplicationStats(); rs.SnapshotSyncs != 0 {
		t.Fatalf("expected pure incremental replication, got %+v", rs)
	}
	// Both members ran the same transitions: same state, and counts that
	// are what a recount of the tables gives.
	if p, s := c.dists[0].StateView(), c.dists[1].StateView(); !reflect.DeepEqual(p, s) {
		t.Fatalf("state diverged\nprimary   %+v\nsecondary %+v", p, s)
	}
	provCountExact(t, "primary", c.dists[0])
	provCountExact(t, "secondary", c.dists[1])
}

// TestClusterLagSurfacing is the staleness fix: a down secondary's lag
// is visible through Lag() while it misses commits, and bringing it
// back replays everything before it can serve again.
func TestClusterLagSurfacing(t *testing.T) {
	c, _ := testCluster(t, 3, 6)
	if err := c.RegisterClient("lee"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPassword("lee", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("lee", "pw", "base", payload(30_000, 5), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDown(2, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("lee", "pw", "while-down", payload(30_000, 6), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}

	lag := c.Lag()
	if lag[0].Role != "primary" || lag[0].LagRecords != 0 {
		t.Fatalf("primary row: %+v", lag[0])
	}
	if lag[1].LagRecords != 0 || lag[1].Down {
		t.Fatalf("up secondary should be current: %+v", lag[1])
	}
	if !lag[2].Down || lag[2].LagRecords == 0 {
		t.Fatalf("down secondary should show lag: %+v", lag[2])
	}
	if lag[2].Generation >= lag[0].Generation {
		t.Fatalf("down secondary generation %d not behind primary %d", lag[2].Generation, lag[0].Generation)
	}

	// Heal: SetDown(false) must catch the member up before it serves.
	if err := c.SetDown(2, false); err != nil {
		t.Fatal(err)
	}
	lag = c.Lag()
	if lag[2].LagRecords != 0 || lag[2].Generation != lag[0].Generation {
		t.Fatalf("healed secondary still lagging: %+v vs primary %+v", lag[2], lag[0])
	}
	want, err := c.dists[0].GetFile("lee", "pw", "while-down")
	if err != nil {
		t.Fatal(err)
	}
	c.SetDown(0, true)
	c.SetDown(1, true)
	got, err := c.GetFile("lee", "pw", "while-down")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("healed secondary served stale or corrupt bytes")
	}
}

// TestClusterSnapshotFallback covers the two paths that must ship a
// full snapshot: a member joining with a diverged generation, and a
// member whose cursor fell off the retained log.
func TestClusterSnapshotFallback(t *testing.T) {
	fleet := testFleet(t, 6)
	primary, err := New(Config{Fleet: fleet, Secret: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.RegisterClient("pat"); err != nil {
		t.Fatal(err)
	}
	if err := primary.AddPassword("pat", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Upload("pat", "pw", "pre", payload(50_000, 9), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}

	// The follower joins late: its generation (0) diverges from the
	// primary's, so the first sync must be a snapshot.
	follower, err := New(Config{Fleet: fleet, Secret: []byte{2}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(primary, follower)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	rs := c.ReplicationStats()
	if rs.SnapshotSyncs != 1 {
		t.Fatalf("late join should cost exactly one snapshot: %+v", rs)
	}
	statsEqual(t, "after join", primary.Stats(), follower.Stats())

	// From here replication is incremental again.
	if _, err := c.Upload("pat", "pw", "post", payload(20_000, 10), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	rs = c.ReplicationStats()
	if rs.SnapshotSyncs != 1 || rs.RecordsReplicated == 0 {
		t.Fatalf("post-join sync regressed to snapshots: %+v", rs)
	}
	want, err := primary.GetFile("pat", "pw", "post")
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.GetFile("pat", "pw", "post")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("follower read diverged after catch-up")
	}
}
