package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/wal"
)

func TestReplicasValidation(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "f", []byte("x"), privacy.Low, UploadOptions{Replicas: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative replicas: %v", err)
	}
	// More replicas than distinct providers can host.
	if _, err := d.Upload("alice", "root", "f", []byte("x"), privacy.Low, UploadOptions{Replicas: 10}); !errors.Is(err, ErrPlacement) {
		t.Fatalf("oversubscribed replicas: %v", err)
	}
}

func TestReplicasStoredOnDistinctProviders(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(40_000, 70)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.MirrorShards != 2*st.Chunks {
		t.Fatalf("mirrors = %d, want %d", st.MirrorShards, 2*st.Chunks)
	}
	d.mu.Lock()
	for _, c := range d.chunks {
		seen := map[int]bool{c.CPIndex: true}
		if len(c.Mirrors) != 2 {
			t.Fatalf("chunk has %d mirrors", len(c.Mirrors))
		}
		for _, m := range c.Mirrors {
			if seen[m.CPIndex] {
				t.Fatalf("mirror shares provider %d", m.CPIndex)
			}
			seen[m.CPIndex] = true
		}
	}
	d.mu.Unlock()
	got, err := d.GetFile("alice", "root", "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestMirrorsServeReadsWhenPrimaryAndParityDown(t *testing.T) {
	// With 2 mirrors + no parity, reads must survive the primary being
	// down because a mirror takes over.
	d := testDistributor(t, 6)
	data := payload(30_000, 71)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Replicas: 2, NoParity: true}); err != nil {
		t.Fatal(err)
	}
	// Fail every chunk's primary provider (collect them first).
	d.mu.Lock()
	primaries := map[int]bool{}
	for _, c := range d.chunks {
		primaries[c.CPIndex] = true
	}
	d.mu.Unlock()
	for idx := range primaries {
		p, _ := d.fleet.At(idx)
		p.SetOutage(true)
	}
	got, err := d.GetFile("alice", "root", "f")
	if err != nil {
		t.Fatalf("mirror read failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mirror data mismatch")
	}
}

// TestHealthStatus pins the one status rule: "ok" while every provider
// is up with its circuit closed, "degraded" once one is down (its row
// says so) or its circuit has opened.
func TestHealthStatus(t *testing.T) {
	d := testDistributor(t, 4)
	if h := d.Health(); h.Status != "ok" || len(h.Providers) != 4 {
		t.Fatalf("healthy fleet: status %q over %d providers, want ok over 4", h.Status, len(h.Providers))
	}
	p, _ := d.fleet.At(1)
	p.SetOutage(true)
	if h := d.Health(); h.Status != "degraded" || !h.Providers[1].Down {
		t.Fatalf("provider 1 down: status %q, row %+v; want degraded and down", h.Status, h.Providers[1])
	}
	p.SetOutage(false)
	if h := d.Health(); h.Status != "ok" {
		t.Fatalf("provider 1 back: status %q, want ok", h.Status)
	}
	for i := 0; d.Health().Providers[2].State != "open"; i++ {
		if i == 100 {
			t.Fatal("100 failures did not open provider 2's circuit")
		}
		d.health.Record(2, false)
	}
	if h := d.Health(); h.Status != "degraded" || h.Providers[2].Down {
		t.Fatalf("provider 2's circuit open: status %q, row %+v; want degraded, not down", h.Status, h.Providers[2])
	}
}

func TestReplicasRemovedWithFile(t *testing.T) {
	d := testDistributor(t, 6)
	if _, err := d.Upload("alice", "root", "f", payload(20_000, 72), privacy.Moderate, UploadOptions{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveFile("alice", "root", "f"); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.fleet.All() {
		if p.Len() != 0 {
			t.Fatalf("provider %s still holds %d keys", p.Info().Name, p.Len())
		}
	}
	if d.Stats().MirrorShards != 0 {
		t.Fatalf("mirror stat = %d after removal", d.Stats().MirrorShards)
	}
}

func TestReplicasRemovedWithChunk(t *testing.T) {
	d := testDistributor(t, 6)
	info, err := d.Upload("alice", "root", "f", payload(60_000, 73), privacy.Moderate, UploadOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := totalKeys(d)
	if err := d.RemoveChunk("alice", "root", "f", 0); err != nil {
		t.Fatal(err)
	}
	after := totalKeys(d)
	if after >= before {
		t.Fatalf("keys %d -> %d after chunk removal", before, after)
	}
	if d.Stats().MirrorShards != info.Chunks-1 {
		t.Fatalf("mirror stat = %d, want %d", d.Stats().MirrorShards, info.Chunks-1)
	}
}

func totalKeys(d *Distributor) int {
	n := 0
	for _, p := range d.fleet.All() {
		n += p.Len()
	}
	return n
}

func TestUpdateChunkRewritesMirrors(t *testing.T) {
	d := testDistributor(t, 6)
	if _, err := d.Upload("alice", "root", "f", payload(20_000, 74), privacy.Moderate, UploadOptions{Replicas: 2, NoParity: true}); err != nil {
		t.Fatal(err)
	}
	newData := []byte("the updated state of serial zero")
	if err := d.UpdateChunk("alice", "root", "f", 0, newData, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Kill the primary; the mirror must serve the *new* state.
	d.mu.Lock()
	entry := d.chunks[0]
	d.mu.Unlock()
	p, _ := d.fleet.At(entry.CPIndex)
	p.SetOutage(true)
	got, err := d.GetChunk("alice", "root", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatalf("mirror served stale data: %q", got)
	}
}

func TestTransientFailureRetry(t *testing.T) {
	// Providers failing 40% of operations transiently: retries mask it.
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p, err := provider.New(provider.Info{
			Name: fmt.Sprintf("flaky%d", i), PL: privacy.High, CL: 0,
		}, provider.Options{FailureRate: 0.4, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	d, err := New(Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.RegisterClient("c")
	_ = d.AddPassword("c", "pw", privacy.High)
	data := payload(60_000, 75)
	// With 40% failure and 3 attempts the per-op failure rate is 6.4%;
	// an upload of ~10 shards may still fail occasionally, so allow a
	// few retries of the whole operation (a client would too).
	var uerr error
	for attempt := 0; attempt < 5; attempt++ {
		_, uerr = d.Upload("c", "pw", fmt.Sprintf("f%d", attempt), data, privacy.Moderate, UploadOptions{})
		if uerr == nil {
			// Reads can hit the same 6.4% per-op residual; retry them
			// like a client would as well.
			var got []byte
			var gerr error
			for ga := 0; ga < 5; ga++ {
				if got, gerr = d.GetFile("c", "pw", fmt.Sprintf("f%d", attempt)); gerr == nil {
					break
				}
			}
			if gerr != nil {
				t.Fatalf("get after flaky upload: %v", gerr)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("flaky round trip mismatch")
			}
			return
		}
	}
	t.Fatalf("all uploads failed despite retry: %v", uerr)
}

func TestDecommissionMovesEverything(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(80_000, 76)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	// Create a snapshot so every shard type exists.
	if err := d.UpdateChunk("alice", "root", "f", 0, []byte("v2"), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Pick the busiest provider to evacuate.
	victim, most := 0, -1
	for i, p := range d.fleet.All() {
		if p.Len() > most {
			victim, most = i, p.Len()
		}
	}
	rep, err := d.Decommission(victim)
	if err != nil {
		t.Fatal(err)
	}
	vp, _ := d.fleet.At(victim)
	if vp.Len() != 0 {
		t.Fatalf("decommissioned provider still holds %d keys", vp.Len())
	}
	if rep.ChunksMoved+rep.MirrorsMoved+rep.ParityMoved+rep.SnapshotsMoved == 0 {
		t.Fatalf("nothing moved: %+v", rep)
	}
	// Data fully readable afterwards — even with the old provider gone.
	vp.SetOutage(true)
	got, err := d.GetFile("alice", "root", "f")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("v2"), data[chunkSizeFor(t, privacy.Moderate):]...)
	if !bytes.Equal(got, want) {
		t.Fatal("post-decommission data mismatch")
	}
	// Accounting stays consistent.
	for i, p := range d.fleet.All() {
		if p.Len() != d.Stats().PerProvider[i] {
			t.Fatalf("provider %d holds %d keys, table says %d", i, p.Len(), d.Stats().PerProvider[i])
		}
	}
	// RAID still works after migration: fail another provider.
	for i := 0; i < 6; i++ {
		if i == victim {
			continue
		}
		p, _ := d.fleet.At(i)
		p.SetOutage(true)
		if _, err := d.GetFile("alice", "root", "f"); err != nil {
			t.Fatalf("provider %d down after decommission: %v", i, err)
		}
		p.SetOutage(false)
	}
}

func chunkSizeFor(t *testing.T, pl privacy.Level) int {
	t.Helper()
	size, err := privacy.DefaultChunkSizes().Size(pl)
	if err != nil {
		t.Fatal(err)
	}
	return size
}

func TestDecommissionDarkProviderUsesRAID(t *testing.T) {
	// The provider dies abruptly (outage first, then decommission):
	// payloads must come from parity reconstruction.
	d := testDistributor(t, 6)
	data := payload(60_000, 77)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i, p := range d.fleet.All() {
		if p.Len() > 0 {
			victim = i
			break
		}
	}
	vp, _ := d.fleet.At(victim)
	vp.SetOutage(true)
	if _, err := d.Decommission(victim); err != nil {
		t.Fatalf("decommission of dark provider: %v", err)
	}
	got, err := d.GetFile("alice", "root", "f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost after dark decommission: %v", err)
	}
}

// TestMoveShardConflict races a relocation against its owning file, for
// each kind of slot a decommission moves: just before the copy lands on
// its target the hook either moves the file's generation on (the move is
// stale: the copy must go and the shard be reported dirty), also points
// the slot at the copy (the copy IS the live blob now and must stay), or
// closes the log (the commit's append fails: copy dropped, an error).
// Every outcome leaves the slot unmoved by moveShard and no ticket open.
func TestMoveShardConflict(t *testing.T) {
	for _, kind := range []BlobKind{BlobChunk, BlobMirror, BlobSnapshot, BlobParity} {
		for _, outcome := range []string{"stale", "live", "append fails"} {
			t.Run(string(kind)+"/"+outcome, func(t *testing.T) {
				d, hooked := hookedDistributor(t, 8)
				log, _, err := wal.Open(t.TempDir(), wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				d.wal = log // a log to close
				if _, err := d.Upload("alice", "root", "f", payload(80_000, 76), privacy.Moderate, UploadOptions{Replicas: 1}); err != nil {
					t.Fatal(err)
				}
				if err := d.UpdateChunk("alice", "root", "f", 0, []byte("v2"), UploadOptions{}); err != nil {
					t.Fatal(err)
				}
				fe := d.clients["alice"].Files["f"]
				s := shardSlot{kind: kind, idx: fe.ChunkIdx[0]}
				if kind == BlobParity {
					s.idx = d.chunks[fe.ChunkIdx[0]].StripeID
				}
				prov, vid, err := d.cell(s)
				if err != nil {
					t.Fatal(err)
				}
				from, fromVID := *prov, *vid

				var dst storedShard
				for i, h := range hooked {
					h.SetBeforePut(func(_ int, key string) error {
						clearPutHooks(hooked)
						dst = storedShard{i, key}
						d.mu.Lock()
						defer d.mu.Unlock()
						switch outcome {
						case "append fails":
							d.closed = true
							return nil
						case "live":
							*prov, *vid = dst.provIdx, dst.vid
						}
						fe.Gen++
						return nil
					})
				}
				var rep DecommissionReport
				dirty, err := d.moveShard(s, from, &rep)

				kept := false
				for _, key := range hooked[dst.provIdx].Keys() {
					kept = kept || key == dst.vid
				}
				wantDirty, wantErr, wantKept := 1, error(nil), outcome == "live"
				if outcome == "append fails" {
					wantDirty, wantErr = 0, errClosed
				}
				if dirty != wantDirty || !errors.Is(err, wantErr) || kept != wantKept {
					t.Fatalf("dirty=%d err=%v copy kept=%v, want %d, %v, %v", dirty, err, kept, wantDirty, wantErr, wantKept)
				}
				if outcome != "live" && (*prov != from || *vid != fromVID) {
					t.Fatalf("slot moved to (%d, %s) by a move that did not commit", *prov, *vid)
				}
				if rep != (DecommissionReport{}) {
					t.Fatalf("a move that did not commit was reported: %+v", rep)
				}
				if !StateOf(d).Quiescent {
					t.Fatal("ticket left open")
				}
			})
		}
	}
}

// TestDecommissionKeepsCopiesApart evacuates each provider in turn from a
// fleet too small to keep every moved chunk off its stripe mates: the
// relax may drop that half of the rule, never the other — no two copies
// (primary or mirrors) of a chunk may end up on one provider, where the
// mirror would protect nothing.
func TestDecommissionKeepsCopiesApart(t *testing.T) {
	for victim := 0; victim < 6; victim++ {
		t.Run(fmt.Sprint(victim), func(t *testing.T) {
			d := testDistributor(t, 6)
			data := payload(4*chunkSizeFor(t, privacy.High), 78)
			if _, err := d.Upload("alice", "root", "f", data, privacy.High, UploadOptions{Replicas: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Decommission(victim); err != nil {
				t.Fatal(err)
			}
			for _, ce := range d.chunks {
				homes := map[int]bool{ce.CPIndex: true}
				for _, m := range ce.Mirrors {
					if homes[m.CPIndex] {
						t.Fatalf("chunk %d: two copies on provider %d (primary %d, mirrors %v)", ce.Serial, m.CPIndex, ce.CPIndex, ce.Mirrors)
					}
					homes[m.CPIndex] = true
				}
			}
			if got, err := d.GetFile("alice", "root", "f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("readback: %v", err)
			}
		})
	}
}

func TestDecommissionBadIndex(t *testing.T) {
	d := testDistributor(t, 3)
	if _, err := d.Decommission(9); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestOpMetrics(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(60_000, 90)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetFile("alice", "root", "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetChunk("alice", "root", "f", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetRange("alice", "root", "f", 10, 20); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateChunk("alice", "root", "f", 0, []byte("x"), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.Uploads != 1 || m.FileReads != 1 || m.ChunkReads != 1 || m.RangeReads != 1 || m.Updates != 1 {
		t.Fatalf("op counters wrong: %+v", m)
	}
	if m.PrimaryHits == 0 {
		t.Fatalf("no primary hits recorded: %+v", m)
	}
	if m.MirrorHits != 0 || m.Reconstructions != 0 {
		t.Fatalf("unexpected recovery events on healthy fleet: %+v", m)
	}

	// Fail the primary of chunk 1: reads must record mirror hits.
	d.mu.Lock()
	entry := d.chunks[1]
	d.mu.Unlock()
	p, _ := d.fleet.At(entry.CPIndex)
	p.SetOutage(true)
	if _, err := d.GetChunk("alice", "root", "f", 1); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().MirrorHits == 0 {
		t.Fatalf("mirror hit not recorded: %+v", d.Metrics())
	}
	p.SetOutage(false)
	if err := d.RemoveFile("alice", "root", "f"); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().Removes != 1 {
		t.Fatalf("remove not counted: %+v", d.Metrics())
	}
}

func TestOpMetricsReconstruction(t *testing.T) {
	d := testDistributor(t, 6)
	if _, err := d.Upload("alice", "root", "f", payload(40_000, 91), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	entry := d.chunks[0]
	d.mu.Unlock()
	p, _ := d.fleet.At(entry.CPIndex)
	p.SetOutage(true)
	if _, err := d.GetChunk("alice", "root", "f", 0); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().Reconstructions == 0 {
		t.Fatalf("reconstruction not recorded: %+v", d.Metrics())
	}
}

func TestOpMetricsTransientRetries(t *testing.T) {
	fleet, _ := provider.NewFleet(
		provider.MustNew(provider.Info{Name: "a", PL: privacy.High, CL: 0}, provider.Options{FailureRate: 0.3, Seed: 1}),
		provider.MustNew(provider.Info{Name: "b", PL: privacy.High, CL: 0}, provider.Options{FailureRate: 0.3, Seed: 2}),
		provider.MustNew(provider.Info{Name: "c", PL: privacy.High, CL: 0}, provider.Options{FailureRate: 0.3, Seed: 3}),
		provider.MustNew(provider.Info{Name: "e", PL: privacy.High, CL: 0}, provider.Options{FailureRate: 0.3, Seed: 4}),
		provider.MustNew(provider.Info{Name: "f", PL: privacy.High, CL: 0}, provider.Options{FailureRate: 0.3, Seed: 5}),
	)
	d, _ := New(Config{Fleet: fleet})
	_ = d.RegisterClient("c")
	_ = d.AddPassword("c", "pw", privacy.High)
	for i := 0; i < 5; i++ {
		_, _ = d.Upload("c", "pw", fmt.Sprintf("f%d", i), payload(30_000, int64(i)), privacy.Moderate, UploadOptions{})
	}
	if d.Metrics().TransientRetries == 0 {
		t.Fatalf("no retries recorded against 30%%-flaky providers: %+v", d.Metrics())
	}
}

func TestAuditOrphans(t *testing.T) {
	d := testDistributor(t, 5)
	if _, err := d.Upload("alice", "root", "f", payload(40_000, 110), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Clean system: no orphans.
	rep, err := AuditOrphans(d, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("clean system has orphans: %+v", rep.Orphans)
	}
	// Plant orphans directly on two providers (simulating an interrupted
	// removal).
	p0, _ := d.fleet.At(0)
	p1, _ := d.fleet.At(1)
	_ = p0.Put("orphan-a", []byte("junk"))
	_ = p1.Put("orphan-b", []byte("junk"))

	rep, err = AuditOrphans(d, false)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, keys := range rep.Orphans {
		total += len(keys)
	}
	if total != 2 || rep.Deleted != 0 {
		t.Fatalf("dry run = %+v", rep)
	}
	// GC pass removes them and data stays intact.
	rep, err = AuditOrphans(d, true)
	if err != nil || rep.Deleted != 2 {
		t.Fatalf("gc = %+v, %v", rep, err)
	}
	if _, err := d.GetFile("alice", "root", "f"); err != nil {
		t.Fatalf("data damaged by GC: %v", err)
	}
	rep, _ = AuditOrphans(d, false)
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans remain after GC: %+v", rep.Orphans)
	}
}

func TestAuditSkipsDownProviders(t *testing.T) {
	d := testDistributor(t, 4)
	p0, _ := d.fleet.At(0)
	_ = p0.Put("orphan", []byte("x"))
	p0.SetOutage(true)
	rep, err := AuditOrphans(d, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deleted != 0 {
		t.Fatalf("audit touched a down provider: %+v", rep)
	}
}
