package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// hookedFleet builds n in-memory providers, returned for their hooks,
// with identical cost levels, so placement is purely load-balancing and
// every provider gets selected deterministically.
func hookedFleet(t *testing.T, n int) (*provider.Fleet, []*provider.MemProvider) {
	t.Helper()
	f, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	hooked := make([]*provider.MemProvider, n)
	for i := 0; i < n; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("H%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hooked[i] = mem
		if err := f.Add(hooked[i]); err != nil {
			t.Fatal(err)
		}
	}
	return f, hooked
}

// hookedDistributor builds a distributor over a hookedFleet with
// serialized provider I/O (so put ordinals are the staged shard order).
func hookedDistributor(t *testing.T, n int) (*Distributor, []*provider.MemProvider) {
	t.Helper()
	f, hooked := hookedFleet(t, n)
	d, err := New(Config{Fleet: f, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	return d, hooked
}

// failNthFleetPut makes the k-th Put across the whole fleet fail with
// ErrOutage (not retried as transient), everything else pass.
func failNthFleetPut(hooked []*provider.MemProvider, k int) {
	var mu sync.Mutex
	n := 0
	for _, h := range hooked {
		h.SetBeforePut(func(_ int, _ string) error {
			mu.Lock()
			defer mu.Unlock()
			n++
			if n == k {
				return provider.ErrOutage
			}
			return nil
		})
	}
}

func clearPutHooks(hooked []*provider.MemProvider) {
	for _, h := range hooked {
		h.SetBeforePut(nil)
	}
}

// uploadEntries are the two entry points of the one upload pipeline; the
// rollback tests take them as a table column.
var uploadEntries = []struct {
	name string
	do   func(d *Distributor, filename string, data []byte, pl privacy.Level, opts UploadOptions) error
}{
	{"Upload", func(d *Distributor, filename string, data []byte, pl privacy.Level, opts UploadOptions) error {
		_, err := d.Upload("alice", "root", filename, data, pl, opts)
		return err
	}},
	{"UploadStream", func(d *Distributor, filename string, data []byte, pl privacy.Level, opts UploadOptions) error {
		_, err := d.UploadStream("alice", "root", filename, bytes.NewReader(data), pl, opts)
		return err
	}},
}

// blobLedger watches a hooked fleet's puts and deletes: how many puts
// were issued, which keys were stored, how often each key was deleted and
// how many deletes overlapped.
type blobLedger struct {
	mu             sync.Mutex
	puts           int
	stored         map[string]bool
	deleted        map[string]int
	inFlight, peak int
}

// watchFleet hooks every provider of the fleet into a fresh ledger. The
// failAt-th put across the fleet fails with ErrOutage (not retried as
// transient; 0 fails none), and every delete takes deleteDelay.
func watchFleet(hooked []*provider.MemProvider, failAt int, deleteDelay time.Duration) *blobLedger {
	l := &blobLedger{stored: map[string]bool{}, deleted: map[string]int{}}
	for _, h := range hooked {
		h.SetBeforePut(func(_ int, key string) error {
			l.mu.Lock()
			defer l.mu.Unlock()
			if l.puts++; l.puts == failAt {
				return provider.ErrOutage
			}
			l.stored[key] = true
			return nil
		})
		h.SetBeforeDelete(func(key string) error {
			l.mu.Lock()
			l.deleted[key]++
			l.inFlight++
			l.peak = max(l.peak, l.inFlight)
			l.mu.Unlock()
			time.Sleep(deleteDelay)
			l.mu.Lock()
			l.inFlight--
			l.mu.Unlock()
			return nil
		})
	}
	return l
}

// assertRolledBack checks what a failed upload must leave: no blob on any
// provider, every blob that was stored deleted exactly once and nothing
// else deleted, and the counter agreeing.
func (l *blobLedger) assertRolledBack(t *testing.T, d *Distributor, hooked []*provider.MemProvider) {
	t.Helper()
	for i, h := range hooked {
		if h.Len() != 0 {
			t.Fatalf("provider %d holds %d orphaned blobs after rollback", i, h.Len())
		}
	}
	for key := range l.stored {
		if l.deleted[key] != 1 {
			t.Fatalf("stored blob %s was deleted %d times", key, l.deleted[key])
		}
	}
	if got := d.Metrics().RollbackDeletes; got != int64(len(l.stored)) || len(l.deleted) != len(l.stored) {
		t.Fatalf("RollbackDeletes = %d and %d keys deleted, want %d each", got, len(l.deleted), len(l.stored))
	}
}

// TestUploadRollbackAtEveryShardPosition fails the upload's k-th provider
// put for every shard position of a one-stripe file, through both entry
// points, on a fleet exactly as wide as the stripe so failover has nowhere
// to go. The upload must fail cleanly: no blobs left on any provider, no
// table rows, no put issued once it has failed, and the same file
// uploadable once the fault clears.
func TestUploadRollbackAtEveryShardPosition(t *testing.T) {
	cases := []struct {
		name      string
		providers int
		puts      int // data shards + parity shards in one stripe
		opts      UploadOptions
	}{
		{"raid5", 5, 5, UploadOptions{}},
		{"raid6", 6, 6, UploadOptions{Assurance: raid.RAID6}},
	}
	for _, tc := range cases {
		for _, entry := range uploadEntries {
			for k := 1; k <= tc.puts; k++ {
				t.Run(fmt.Sprintf("%s_%s_put%d", tc.name, entry.name, k), func(t *testing.T) {
					d, hooked := hookedDistributor(t, tc.providers)
					// Exactly one full stripe: width (4) data chunks.
					data := payload(4*chunkSizeFor(t, privacy.Moderate), int64(100+k))
					ledger := watchFleet(hooked, k, 0)
					if err := entry.do(d, "f", data, privacy.Moderate, tc.opts); err == nil {
						t.Fatal("upload should fail when failover is impossible")
					}
					ledger.assertRolledBack(t, d, hooked)
					// One put worker (Parallelism 1): the k-th put is the last
					// one issued, and the k-1 before it are what was stored.
					if ledger.puts != k || len(ledger.stored) != k-1 {
						t.Fatalf("%d puts issued and %d blobs stored after put %d failed the upload", ledger.puts, len(ledger.stored), k)
					}
					st := d.Stats()
					if st.Chunks != 0 || st.ParityShards != 0 || st.Stripes != 0 || st.Files != 0 {
						t.Fatalf("tables not rolled back: %+v", st)
					}
					if _, err := d.ChunkCount("alice", "root", "f"); !errors.Is(err, ErrNoSuchFile) {
						t.Fatalf("file exists after failed upload: %v", err)
					}
					// The fault was transient operator error, not state damage:
					// the same upload must work once the hook clears.
					clearPutHooks(hooked)
					if err := entry.do(d, "f", data, privacy.Moderate, tc.opts); err != nil {
						t.Fatalf("upload after fault cleared: %v", err)
					}
					got, err := d.GetFile("alice", "root", "f")
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("round trip after recovery: %v", err)
					}
				})
			}
		}
	}
}

// TestRollbackFansOut aborts a many-stripe defended upload midway, at the
// default parallelism and window, through both entry points: the blobs
// already stored are deleted through the same bounded fan-out as every
// other bulk provider loop (serially this was one round trip after
// another), every one of them exactly once, and the upload stops where it
// failed — puts already on the wire finish, the stripes behind them are
// never put.
func TestRollbackFansOut(t *testing.T) {
	for _, entry := range uploadEntries {
		t.Run(entry.name, func(t *testing.T) {
			f, hooked := hookedFleet(t, 6)
			d, err := New(Config{Fleet: f}) // Parallelism 4 and StreamWindow 4, the defaults
			if err != nil {
				t.Fatal(err)
			}
			if err := d.RegisterClient("alice"); err != nil {
				t.Fatal(err)
			}
			if err := d.AddPassword("alice", "root", privacy.High); err != nil {
				t.Fatal(err)
			}
			// 128 chunks at PL3 over RAID-6 on six providers: 32 stripes, 192
			// puts, nowhere to fail over to. The 90th put fails for good;
			// deletes are slow enough to overlap.
			const failAt, shardsPerStripe, window = 90, 6, 4
			ledger := watchFleet(hooked, failAt, 100*time.Microsecond)
			data := payload(128*chunkSizeFor(t, privacy.High), 600)
			opts := UploadOptions{MisleadFraction: 0.25, Assurance: raid.RAID6}
			if err := entry.do(d, "f", data, privacy.High, opts); err == nil {
				t.Fatal("upload should fail when failover is impossible")
			}
			ledger.assertRolledBack(t, d, hooked)
			if len(ledger.stored) < 80 {
				t.Fatalf("only %d blobs were stored before the abort; the rollback is not a bulk one", len(ledger.stored))
			}
			if ledger.peak < 2 {
				t.Fatalf("at most %d delete in flight at a time: the rollback ran serially", ledger.peak)
			}
			// Workers check for failure before every put, so in practice a
			// handful of puts follow the failing one; a window of stripes is
			// the bound that cannot flake, and it is far from the 192 a
			// pipeline that ran every put to its end would issue.
			if ledger.puts > failAt+window*shardsPerStripe {
				t.Fatalf("%d puts issued although put %d failed the upload", ledger.puts, failAt)
			}
		})
	}
}

// TestConcurrentFailoversOfOneStripeLandApart forces put failures on
// every entry point that ships a blob and checks where the failovers
// land: every committed blob on a provider avoid allows, tables and
// providers agreeing, every chunk reading back, nothing staged left
// behind. The Upload row fails two shards of the same stripe at the same
// moment, at Parallelism 4: both want the same spare — the one cheap
// provider not yet in the stripe — and the stripe's failover lock must
// send the second elsewhere. The other rows fail the first put of one
// blob of an UpdateChunk, a RemoveChunk re-encode or a relocation.
func TestConcurrentFailoversOfOneStripeLandApart(t *testing.T) {
	data := payload(4*chunkSizeFor(t, privacy.Moderate), 700) // one full stripe, RAID-5: five shards
	upload := func(d *Distributor, opts UploadOptions) error {
		_, err := d.Upload("alice", "root", "f", data, privacy.Moderate, opts)
		return err
	}
	// A mirrored stripe whose chunk 0 has been updated once, so every kind
	// of slot exists.
	mirrored := func(d *Distributor) error {
		if err := upload(d, UploadOptions{Replicas: 1}); err != nil {
			return err
		}
		return d.UpdateChunk("alice", "root", "f", 0, []byte("v2"), UploadOptions{})
	}
	// update's puts go snapshot, post-state, mirror, parity.
	update := func(d *Distributor, want [][]byte) error {
		want[0] = []byte("v3")
		return d.UpdateChunk("alice", "root", "f", 0, want[0], UploadOptions{})
	}
	move := func(kind BlobKind) func(*Distributor, [][]byte) error {
		return func(d *Distributor, _ [][]byte) error {
			s := shardSlot{kind: kind}
			if kind == BlobParity {
				s.idx = d.chunks[0].StripeID
			}
			prov, _, err := d.cell(s)
			if err != nil {
				return err
			}
			from := *prov
			var rep DecommissionReport
			if n, err := d.moveShard(s, from, &rep); n != 1 || err != nil {
				return fmt.Errorf("moveShard = %d, %v", n, err)
			}
			if *prov == from {
				return fmt.Errorf("%s still on provider %d", kind, from)
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name   string
		setup  func(*Distributor) error
		failAt int // the put of act that fails; 0: the Upload row's two at once
		act    func(d *Distributor, want [][]byte) error
	}{
		{"Upload", nil, 0, func(d *Distributor, _ [][]byte) error { return upload(d, UploadOptions{}) }},
		{"UpdateChunk/post-state", mirrored, 2, update},
		{"UpdateChunk/mirror", mirrored, 3, update},
		{"UpdateChunk/parity", mirrored, 4, update},
		{"RemoveChunk/parity", mirrored, 1, func(d *Distributor, want [][]byte) error {
			want[1] = nil
			return d.RemoveChunk("alice", "root", "f", 1)
		}},
		{"moveShard/chunk", mirrored, 1, move(BlobChunk)},
		{"moveShard/mirror", mirrored, 1, move(BlobMirror)},
		{"moveShard/snapshot", mirrored, 1, move(BlobSnapshot)},
		{"moveShard/parity", mirrored, 1, move(BlobParity)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Cost levels: five cheap providers take the stripe, then one
			// spare placement prefers over the other two whatever their load.
			f, err := provider.NewFleet()
			if err != nil {
				t.Fatal(err)
			}
			var hooked []*provider.MemProvider
			for i, cl := range []privacy.CostLevel{0, 0, 0, 0, 0, 1, 2, 2} {
				mem, err := provider.New(provider.Info{Name: fmt.Sprintf("H%d", i), PL: privacy.High, CL: cl}, provider.Options{})
				if err != nil {
					t.Fatal(err)
				}
				hooked = append(hooked, mem)
				if err := f.Add(hooked[i]); err != nil {
					t.Fatal(err)
				}
			}
			d, err := New(Config{Fleet: f, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.RegisterClient("alice"); err != nil {
				t.Fatal(err)
			}
			if err := d.AddPassword("alice", "root", privacy.High); err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, 4)
			for i := range want {
				want[i] = data[i*len(data)/4 : (i+1)*len(data)/4]
			}
			if tc.setup != nil {
				if err := tc.setup(d); err != nil {
					t.Fatal(err)
				}
				want[0] = []byte("v2")
			}

			var mu sync.Mutex
			arrived, both := 0, make(chan struct{})
			failovers := 1
			if tc.failAt == 0 {
				// The first two puts to arrive wait for each other, then both fail.
				failovers = 2
				for _, h := range hooked {
					h.SetBeforePut(func(int, string) error {
						mu.Lock()
						arrived++
						n := arrived
						mu.Unlock()
						if n > 2 {
							return nil
						}
						if n == 2 {
							close(both)
						}
						<-both
						return provider.ErrOutage
					})
				}
			} else {
				failNthFleetPut(hooked, tc.failAt)
			}
			if err := tc.act(d, want); err != nil {
				t.Fatalf("%s with spares for the failed blob: %v", tc.name, err)
			}
			clearPutHooks(hooked)
			if n := d.Metrics().WriteFailovers; n != int64(failovers) {
				t.Fatalf("%d write failovers, want %d", n, failovers)
			}

			d.mu.RLock()
			if tc.failAt == 0 {
				homes := map[int]bool{}
				for _, ce := range d.chunks {
					homes[ce.CPIndex] = true
				}
				for _, ps := range d.stripes[0].Parity {
					homes[ps.CPIndex] = true
				}
				if len(homes) != 5 || !homes[5] {
					t.Errorf("the stripe's five shards live on providers %v: want five distinct ones, the cheap spare among them", homes)
				}
			}
			var slots []shardSlot
			for ci, ce := range d.chunks {
				if ce.CPIndex < 0 {
					continue
				}
				slots = append(slots, shardSlot{kind: BlobChunk, idx: ci})
				for mi := range ce.Mirrors {
					slots = append(slots, shardSlot{kind: BlobMirror, idx: ci, sub: mi})
				}
				if ce.SnapVID != "" {
					slots = append(slots, shardSlot{kind: BlobSnapshot, idx: ci})
				}
			}
			for pi := range d.stripes[0].Parity {
				slots = append(slots, shardSlot{kind: BlobParity, sub: pi})
			}
			for _, s := range slots {
				prov, _, _ := d.cell(s)
				if avoid(d.chunks, &d.stripes[0], s)[*prov] {
					t.Errorf("%+v landed on provider %d, which avoid excludes", s, *prov)
				}
			}
			pending, inflight := append([]int(nil), d.provPending...), len(d.inflight)
			d.mu.RUnlock()
			for i, n := range pending {
				if n != 0 {
					t.Fatalf("provPending[%d] = %d after the commit", i, n)
				}
			}
			if inflight != 0 {
				t.Fatalf("%d virtual ids still registered in flight after the commit", inflight)
			}
			st := d.Stats()
			for i, h := range hooked {
				if h.Len() != st.PerProvider[i] {
					t.Fatalf("provider %d holds %d keys, table says %d", i, h.Len(), st.PerProvider[i])
				}
			}
			for serial, w := range want {
				got, err := d.GetChunk("alice", "root", "f", serial)
				if w == nil {
					if !errors.Is(err, ErrNoSuchChunk) {
						t.Fatalf("removed chunk %d reads: %v", serial, err)
					}
				} else if err != nil || !bytes.Equal(got, w) {
					t.Fatalf("readback of chunk %d: %v", serial, err)
				}
			}
		})
	}
}

// darken makes one provider silently fail every data-plane operation
// while still reporting itself up — the failure mode SetOutage cannot
// model, and the one the health tracker exists to catch.
func darken(h *provider.MemProvider) {
	h.SetBeforePut(func(int, string) error { return provider.ErrOutage })
	h.SetBeforeGet(func(string) error { return provider.ErrOutage })
}

// TestUploadFailsOverAroundDarkProvider gives failover one spare
// provider: uploads must succeed by re-homing the shards that land on
// the dark provider, leaving no orphans anywhere.
func TestUploadFailsOverAroundDarkProvider(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	darken(hooked[0])
	var files []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d", i)
		data := payload(4*chunkSizeFor(t, privacy.Moderate), int64(200+i))
		if _, err := d.Upload("alice", "root", name, data, privacy.Moderate, UploadOptions{}); err != nil {
			t.Fatalf("upload %s with one dark provider: %v", name, err)
		}
		got, err := d.GetFile("alice", "root", name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("readback %s: %v", name, err)
		}
		files = append(files, name)
	}
	if d.Metrics().WriteFailovers == 0 {
		t.Fatal("the dark provider was never selected; failover untested")
	}
	if hooked[0].Len() != 0 {
		t.Fatalf("dark provider holds %d blobs", hooked[0].Len())
	}
	rep, err := d.AuditOrphans(false)
	if err != nil {
		t.Fatal(err)
	}
	for prov, keys := range rep.Orphans {
		if len(keys) > 0 {
			t.Fatalf("orphans on %s after failovers: %v", prov, keys)
		}
	}
	st := d.Stats()
	for i, h := range hooked {
		if h.Len() != st.PerProvider[i] {
			t.Fatalf("provider %d holds %d keys, table says %d", i, h.Len(), st.PerProvider[i])
		}
	}
	_ = files
}

// TestCircuitBreakerAvoidsFailingProvider keeps writing against a dark
// provider until its breaker opens, then checks that placement stops
// selecting it entirely: no further put attempts reach it and uploads
// proceed with zero additional failovers.
func TestCircuitBreakerAvoidsFailingProvider(t *testing.T) {
	d, hooked := hookedDistributor(t, 6)
	darken(hooked[0])
	// Enough uploads to accumulate FailureThreshold (5) consecutive put
	// failures on the dark provider, which load-balancing keeps picking
	// while its circuit is closed.
	for i := 0; i < 8; i++ {
		data := payload(4*chunkSizeFor(t, privacy.Moderate), int64(300+i))
		if _, err := d.Upload("alice", "root", fmt.Sprintf("g%d", i), data, privacy.Moderate, UploadOptions{}); err != nil {
			t.Fatalf("upload g%d: %v", i, err)
		}
	}
	health := d.Health()
	if health[0].State != "open" {
		t.Fatalf("dark provider state = %q after sustained failures, want open (health: %+v)", health[0].State, health[0])
	}
	if d.Metrics().CircuitOpens == 0 {
		t.Fatal("CircuitOpens counter never moved")
	}
	// With the circuit open the provider is invisible to placement:
	// further uploads must not attempt a single put against it.
	putsBefore := hooked[0].Puts()
	failoversBefore := d.Metrics().WriteFailovers
	for i := 0; i < 3; i++ {
		data := payload(4*chunkSizeFor(t, privacy.Moderate), int64(400+i))
		if _, err := d.Upload("alice", "root", fmt.Sprintf("h%d", i), data, privacy.Moderate, UploadOptions{}); err != nil {
			t.Fatalf("upload h%d with open circuit: %v", i, err)
		}
	}
	if n := hooked[0].Puts() - putsBefore; n != 0 {
		t.Fatalf("%d puts reached the open-circuited provider", n)
	}
	if n := d.Metrics().WriteFailovers - failoversBefore; n != 0 {
		t.Fatalf("%d failovers with the bad provider already circuit-broken", n)
	}
}

// TestRollbackPreservesExistingFiles stages a failing second upload and
// checks the rollback touches nothing belonging to the first.
func TestRollbackPreservesExistingFiles(t *testing.T) {
	d, hooked := hookedDistributor(t, 5)
	data1 := payload(4*chunkSizeFor(t, privacy.Moderate), 500)
	if _, err := d.Upload("alice", "root", "keep", data1, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	failNthFleetPut(hooked, 3)
	data2 := payload(4*chunkSizeFor(t, privacy.Moderate), 501)
	if _, err := d.Upload("alice", "root", "doomed", data2, privacy.Moderate, UploadOptions{}); err == nil {
		t.Fatal("second upload should fail")
	}
	clearPutHooks(hooked)
	after := d.Stats()
	if before.Chunks != after.Chunks || before.ParityShards != after.ParityShards {
		t.Fatalf("rollback disturbed tables: before %+v, after %+v", before, after)
	}
	for i, h := range hooked {
		if h.Len() != after.PerProvider[i] {
			t.Fatalf("provider %d holds %d keys, table says %d", i, h.Len(), after.PerProvider[i])
		}
	}
	got, err := d.GetFile("alice", "root", "keep")
	if err != nil || !bytes.Equal(got, data1) {
		t.Fatalf("first file damaged by second upload's rollback: %v", err)
	}
}
