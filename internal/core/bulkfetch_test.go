package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
	"repro/internal/transport"
)

// bulkRig is a distributor over hooked in-memory providers, reached
// either directly (the primary-fetch step loops their Get) or, remote,
// each behind its own httptest ProviderServer through a RemoteProvider
// (one multi-get round trip per call). gets counts the keys each provider
// was asked for, whichever way they arrived; requests counts the HTTP
// requests each provider's server saw on the multi-get route and on
// everything else.
type bulkRig struct {
	d        *core.Distributor
	hooked   []*provider.MemProvider
	gets     []atomic.Int64
	multiReq []atomic.Int64
	otherReq []atomic.Int64
}

const multiGetPath = "/v1/chunks:get"

func newBulkRig(tb testing.TB, n int, remote bool, cfg core.Config) *bulkRig {
	tb.Helper()
	rig := &bulkRig{
		hooked:   make([]*provider.MemProvider, n),
		gets:     make([]atomic.Int64, n),
		multiReq: make([]atomic.Int64, n),
		otherReq: make([]atomic.Int64, n),
	}
	fleet, err := provider.NewFleet()
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		i := i
		mem, err := provider.New(provider.Info{Name: fmt.Sprintf("B%d", i), PL: privacy.High, CL: 1}, provider.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		rig.hooked[i] = mem
		rig.hooked[i].SetBeforeGet(func(string) error { rig.gets[i].Add(1); return nil })
		var member provider.Provider = rig.hooked[i]
		if remote {
			server := transport.NewProviderServer(rig.hooked[i])
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == multiGetPath {
					rig.multiReq[i].Add(1)
				} else {
					rig.otherReq[i].Add(1)
				}
				server.ServeHTTP(w, r)
			}))
			tb.Cleanup(srv.Close)
			if member, err = transport.DialProvider(srv.URL, nil); err != nil {
				tb.Fatal(err)
			}
		}
		if err := fleet.Add(member); err != nil {
			tb.Fatal(err)
		}
	}
	cfg.Fleet = fleet
	if rig.d, err = core.New(cfg); err != nil {
		tb.Fatal(err)
	}
	if err := rig.d.RegisterClient("alice"); err != nil {
		tb.Fatal(err)
	}
	if err := rig.d.AddPassword("alice", "root", privacy.High); err != nil {
		tb.Fatal(err)
	}
	return rig
}

// bothWays runs a test over in-process and over httptest providers.
func bothWays(t *testing.T, test func(t *testing.T, remote bool)) {
	for _, remote := range []bool{false, true} {
		name := "hooked"
		if remote {
			name = "httptest"
		}
		t.Run(name, func(t *testing.T) { test(t, remote) })
	}
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// chunksByProvider lists a file's chunk vids per primary provider. The
// rig holds one file, so the chunk table is that file's.
func (rig *bulkRig) chunksByProvider() [][]string {
	by := make([][]string, len(rig.hooked))
	for _, row := range rig.d.ChunkTable() {
		by[row.CPIndex] = append(by[row.CPIndex], row.VirtualID)
	}
	return by
}

// wantCalls is how many calls the primary-fetch step makes for a file
// whose chunks sit as by says: one per 32 blobs per provider (the byte
// cap is out of reach of 32 PL3 blobs).
func wantCalls(by [][]string) (calls, blobs int64) {
	for _, vids := range by {
		calls += int64((len(vids) + 31) / 32)
		blobs += int64(len(vids))
	}
	return calls, blobs
}

func (rig *bulkRig) resetCounts() {
	for i := range rig.gets {
		rig.gets[i].Store(0)
		rig.multiReq[i].Store(0)
		rig.otherReq[i].Store(0)
	}
}

// defendedUpload stores the paper's highly-sensitive shape in miniature:
// PL3 (8 KiB chunks), a quarter misleading bytes, RAID-6.
func (rig *bulkRig) defendedUpload(tb testing.TB, size int) []byte {
	tb.Helper()
	data := randomBytes(size, 16)
	opts := core.UploadOptions{MisleadFraction: 0.25, Assurance: raid.RAID6}
	if _, err := rig.d.Upload("alice", "root", "f", data, privacy.High, opts); err != nil {
		tb.Fatal(err)
	}
	rig.resetCounts()
	return data
}

// TestBulkReadFaultFree pins the request arithmetic of a whole-file read:
// every chunk arrives from its primary, in one call per 32 of a
// provider's chunks, and nothing is hedged or reconstructed.
func TestBulkReadFaultFree(t *testing.T) {
	bothWays(t, func(t *testing.T, remote bool) {
		rig := newBulkRig(t, 6, remote, core.Config{HedgeAfter: time.Second})
		data := rig.defendedUpload(t, 1<<20)
		by := rig.chunksByProvider()
		calls, blobs := wantCalls(by)
		before := rig.d.Metrics()
		got, err := rig.d.GetFile("alice", "root", "f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("GetFile: err=%v, equal=%v", err, bytes.Equal(got, data))
		}
		m := rig.d.Metrics()
		if m.BulkGets-before.BulkGets != calls || m.BulkBlobs-before.BulkBlobs != blobs {
			t.Errorf("bulk gets/blobs = %d/%d, want %d/%d", m.BulkGets-before.BulkGets, m.BulkBlobs-before.BulkBlobs, calls, blobs)
		}
		if m.PrimaryHits-before.PrimaryHits != blobs || m.HedgedReads != 0 || m.Reconstructions != 0 || m.MirrorHits != 0 {
			t.Errorf("primary=%d hedged=%d reconstructions=%d mirror=%d, want %d/0/0/0",
				m.PrimaryHits-before.PrimaryHits, m.HedgedReads, m.Reconstructions, m.MirrorHits, blobs)
		}
		for i, vids := range by {
			if n := rig.gets[i].Load(); n != int64(len(vids)) {
				t.Errorf("provider %d was asked for %d keys, holds %d chunks", i, n, len(vids))
			}
			if remote {
				if multi, other := rig.multiReq[i].Load(), rig.otherReq[i].Load(); multi != int64((len(vids)+31)/32) || other != 0 {
					t.Errorf("provider %d saw %d multi-gets and %d other requests, want %d and 0", i, multi, other, (len(vids)+31)/32)
				}
			}
		}
	})
}

// wantDegradedGets is what each provider is asked for by a read of every
// chunk with provider dark out: its own chunks, plus its parity shards of
// the stripes that have a member on the dark provider — the surviving
// data members of those stripes are in the read's hands already.
func (rig *bulkRig) wantDegradedGets(dark int) (want []int64, total int64) {
	want = make([]int64, len(rig.hooked))
	for _, st := range core.StateOf(rig.d).Stripes {
		degraded := false
		for _, m := range st.Members {
			want[m.ProvIdx]++
			degraded = degraded || m.ProvIdx == dark
		}
		for _, p := range st.Parity {
			if degraded {
				want[p.ProvIdx]++
			}
		}
	}
	for i, n := range want {
		if i != dark {
			total += n
		}
	}
	return want, total
}

// TestBulkReadDarkProvider: with one provider dark, only its chunks are
// reconstructed; every other chunk still arrives in its provider's
// multi-gets, and the survivors are asked for nothing beyond their own
// chunks and the parity shards of the degraded stripes — the same
// through GetFile and through a full-width GetRange.
func TestBulkReadDarkProvider(t *testing.T) {
	bothWays(t, func(t *testing.T, remote bool) {
		rig := newBulkRig(t, 6, remote, core.Config{})
		data := rig.defendedUpload(t, 1<<20)
		by := rig.chunksByProvider()
		const dark = 2
		rig.hooked[dark].SetPartitioned(true)
		calls, blobs := wantCalls(by)
		lost := int64(len(by[dark]))
		want, total := rig.wantDegradedGets(dark)
		// RAID-6: two parity shards per lost chunk, not its five siblings.
		if total != blobs-lost+2*lost {
			t.Fatalf("test arithmetic: %d survivor gets expected, want %d − %d + 2·%d", total, blobs, lost, lost)
		}

		for _, path := range []struct {
			name string
			read func() ([]byte, error)
		}{
			{"GetFile", func() ([]byte, error) { return rig.d.GetFile("alice", "root", "f") }},
			{"GetRange", func() ([]byte, error) { return rig.d.GetRange("alice", "root", "f", 0, len(data)) }},
		} {
			name := path.name
			rig.resetCounts()
			before := rig.d.Metrics()
			got, err := path.read()
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s with provider %d dark: err=%v, equal=%v", name, dark, err, bytes.Equal(got, data))
			}
			m := rig.d.Metrics()
			if gets, blobsAsked := m.BulkGets-before.BulkGets, m.BulkBlobs-before.BulkBlobs; gets != calls || blobsAsked != blobs {
				t.Errorf("%s: bulk gets/blobs = %d/%d, want %d/%d", name, gets, blobsAsked, calls, blobs)
			}
			if rec, prim := m.Reconstructions-before.Reconstructions, m.PrimaryHits-before.PrimaryHits; rec != lost || prim != blobs-lost {
				t.Errorf("%s: reconstructions=%d primary=%d, want %d/%d", name, rec, prim, lost, blobs-lost)
			}
			var asked int64
			for i, vids := range by {
				if i == dark {
					continue
				}
				asked += rig.gets[i].Load()
				if n := rig.gets[i].Load(); n != want[i] {
					t.Errorf("%s: survivor %d was asked for %d keys, want %d of its own + %d parity shards", name, i, n, len(vids), want[i]-int64(len(vids)))
				}
				if remote && rig.multiReq[i].Load() != int64((len(vids)+31)/32) {
					t.Errorf("%s: survivor %d saw %d multi-gets, want %d", name, i, rig.multiReq[i].Load(), (len(vids)+31)/32)
				}
			}
			if asked != total {
				t.Errorf("%s: %d provider gets, want %d", name, asked, total)
			}
		}
	})
}

// TestBulkReadCorruptAndTruncatedBlob: one blob with a flipped byte and
// one cut short inside multi-gets — exactly those two chunks take the
// ladder (which does not ask the primary for the same bad blob again),
// and the flipped one counts as a detected corruption. The flipped byte
// is one the chunk keeps, not a decoy the strip would drop unseen.
func TestBulkReadCorruptAndTruncatedBlob(t *testing.T) {
	bothWays(t, func(t *testing.T, remote bool) {
		rig := newBulkRig(t, 6, remote, core.Config{})
		data := rig.defendedUpload(t, 1<<20)
		by := rig.chunksByProvider()
		corrupt, truncated := by[1][3], by[1][7]
		kept := rig.d.KeptByte(corrupt)
		var badGets atomic.Int64
		rig.hooked[1].SetTransformGet(func(key string, blob []byte) []byte {
			switch key {
			case corrupt:
				badGets.Add(1)
				blob[kept] ^= 0x40
			case truncated:
				badGets.Add(1)
				blob = blob[:len(blob)-1]
			}
			return blob
		})
		_, blobs := wantCalls(by)

		got, err := rig.d.GetFile("alice", "root", "f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("GetFile: err=%v, equal=%v", err, bytes.Equal(got, data))
		}
		m := rig.d.Metrics()
		if m.CorruptionsDetected != 1 || m.Reconstructions != 2 || m.PrimaryHits != blobs-2 {
			t.Errorf("corruptions=%d reconstructions=%d primary=%d, want 1/2/%d", m.CorruptionsDetected, m.Reconstructions, m.PrimaryHits, blobs-2)
		}
		if n := badGets.Load(); n != 2 {
			t.Errorf("the two bad blobs were fetched %d times, want once each", n)
		}

		// The same two through a range read: the same step, the same solve.
		rangeGot, err := rig.d.GetRange("alice", "root", "f", 0, len(data))
		if err != nil || !bytes.Equal(rangeGot, data) {
			t.Fatalf("GetRange: err=%v, equal=%v", err, bytes.Equal(rangeGot, data))
		}
		if m := rig.d.Metrics(); m.CorruptionsDetected != 2 || m.Reconstructions != 4 {
			t.Errorf("after the range read: corruptions=%d reconstructions=%d, want 2/4", m.CorruptionsDetected, m.Reconstructions)
		}
	})
}

// TestBulkReadStalledProvider is TestHedgeMirrorRescue's contract for
// whole files: a provider that stalls without failing must not hold the
// read hostage. Its late call is raced chunk by chunk by the rest of the
// ladder — for a range read too, which without mirrors used to wait the
// call out — and when it finally answers, that genuine success — not a
// failure — is what its health record sees.
func TestBulkReadStalledProvider(t *testing.T) {
	for _, replicas := range []int{0, 1} {
		bothWays(t, func(t *testing.T, remote bool) {
			t.Logf("%d replicas", replicas)
			rig := newBulkRig(t, 6, remote, core.Config{HedgeAfter: 2 * time.Second}) // floor 250 ms: only a stall is hedged
			data := randomBytes(256<<10, 17)
			opts := core.UploadOptions{MisleadFraction: 0.25, Replicas: replicas}
			if _, err := rig.d.Upload("alice", "root", "f", data, privacy.High, opts); err != nil {
				t.Fatal(err)
			}
			by := rig.chunksByProvider()
			const slow = 3
			stalled := int64(len(by[slow]))
			base := rig.d.Health().Providers[slow]
			release := make(chan struct{})
			var once sync.Once
			unstall := func() { once.Do(func() { close(release) }) }
			defer unstall() // before the servers close: they wait for their handlers
			rig.hooked[slow].SetBeforeGet(func(string) error { <-release; return nil })

			got, err := rig.d.GetFile("alice", "root", "f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("GetFile with provider %d stalled: err=%v, equal=%v", slow, err, bytes.Equal(got, data))
			}
			m := rig.d.Metrics()
			if m.HedgedReads != stalled || m.HedgeWins != stalled {
				t.Errorf("hedged=%d wins=%d, want %d/%d (one per stalled chunk)", m.HedgedReads, m.HedgeWins, stalled, stalled)
			}
			if rescued := m.MirrorHits + m.Reconstructions; rescued != stalled {
				t.Errorf("mirror=%d reconstructions=%d, want %d rescues", m.MirrorHits, m.Reconstructions, stalled)
			}
			if replicas > 0 && m.Reconstructions != 0 {
				t.Errorf("reconstructions=%d with a mirror of every chunk", m.Reconstructions)
			}

			ranged := make(chan error, 1)
			go func() {
				got, err := rig.d.GetRange("alice", "root", "f", 0, len(data))
				if err == nil && !bytes.Equal(got, data) {
					err = fmt.Errorf("wrong bytes")
				}
				ranged <- err
			}()
			select {
			case err := <-ranged:
				if err != nil {
					t.Fatalf("GetRange with provider %d stalled: %v", slow, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("GetRange waits out provider %d's stalled call", slow)
			}
			m = rig.d.Metrics()
			if m.HedgedReads != 2*stalled || m.HedgeWins != 2*stalled || m.MirrorHits+m.Reconstructions != 2*stalled {
				t.Errorf("after the range read: hedged=%d wins=%d mirror=%d reconstructions=%d, want %d rescues",
					m.HedgedReads, m.HedgeWins, m.MirrorHits, m.Reconstructions, 2*stalled)
			}

			unstall()
			deadline := time.Now().Add(5 * time.Second)
			for {
				h := rig.d.Health().Providers[slow]
				if h.Successes > base.Successes {
					if h.Failures != base.Failures {
						t.Fatalf("losing the race recorded %d failures", h.Failures-base.Failures)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the late call's success never reached the health tracker")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestBulkReadDeterministicOrder is the anchor simcheck and minecheck
// stand on: with Parallelism 1 the providers see the same keys in the
// same order on every run of the same read.
func TestBulkReadDeterministicOrder(t *testing.T) {
	bothWays(t, func(t *testing.T, remote bool) {
		rig := newBulkRig(t, 6, remote, core.Config{Parallelism: 1})
		data := rig.defendedUpload(t, 1<<20)
		var mu sync.Mutex
		var order []string
		for i, h := range rig.hooked {
			i := i
			h.SetBeforeGet(func(key string) error {
				mu.Lock()
				order = append(order, fmt.Sprintf("%d/%s", i, key))
				mu.Unlock()
				return nil
			})
		}
		read := func() []string {
			order = nil
			if got, err := rig.d.GetFile("alice", "root", "f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("GetFile: err=%v, equal=%v", err, bytes.Equal(got, data))
			}
			if got, err := rig.d.GetRange("alice", "root", "f", 100_000, 300_000); err != nil || !bytes.Equal(got, data[100_000:400_000]) {
				t.Fatalf("GetRange: err=%v", err)
			}
			return order
		}
		first, second := read(), read()
		if len(first) == 0 || !reflect.DeepEqual(first, second) {
			t.Fatalf("provider-side access order differs between two runs (%d and %d gets)", len(first), len(second))
		}
	})
}

// sharedBodyProvider answers GetMany the way RemoteProvider does — every
// blob a capacity-clipped view of one buffer — and keeps that buffer, so
// a test can see what became of it.
type sharedBodyProvider struct {
	*provider.MemProvider
	bodies [][]byte
}

func (p *sharedBodyProvider) GetMany(keys []string) ([][]byte, []error) {
	blobs, errs := make([][]byte, len(keys)), make([]error, len(keys))
	var body []byte
	var ends []int
	for i, key := range keys {
		var data []byte
		if data, errs[i] = p.Get(key); errs[i] == nil {
			body = append(body, data...)
		}
		ends = append(ends, len(body))
	}
	for i, start := 0, 0; i < len(keys); start, i = ends[i], i+1 {
		if errs[i] == nil {
			blobs[i] = body[start:ends[i]:ends[i]]
		}
	}
	p.bodies = append(p.bodies, body)
	return blobs, errs
}

// TestMultiGetBodyIsNeverKept pins the ownership rule of multi-get
// blobs: they alias one response buffer, and for plain chunks (nothing to
// strip) the recovered bytes are those very views. A read must copy out
// what it returns, the chunk cache must hold a copy, and none of it may
// be handed to the buffer pool — GetRange used to recycle its recovered
// buffers, which here would be 16 KiB slices of someone else's body, the
// exact size of a pool class.
func TestMultiGetBodyIsNeverKept(t *testing.T) {
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	var shared []*sharedBodyProvider
	for i := 0; i < 3; i++ {
		mem, err := provider.New(provider.Info{Name: fmt.Sprintf("S%d", i), PL: privacy.High, CL: 1}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		shared = append(shared, &sharedBodyProvider{MemProvider: mem})
		if err := fleet.Add(shared[i]); err != nil {
			t.Fatal(err)
		}
	}
	d, err := core.New(core.Config{Fleet: fleet, Parallelism: 1, CacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	// Two files of the same bytes, one per read path: either read fills
	// the cache, and a read served from it would travel in no body.
	data := randomBytes(512<<10, 18) // PL2: 32 plain chunks of 16 KiB
	for _, name := range []string{"f", "g"} {
		if _, err := d.Upload("alice", "root", name, data, privacy.Moderate, core.UploadOptions{NoParity: true}); err != nil {
			t.Fatal(err)
		}
	}

	// Whatever the pool hands out after a read must not be a piece of a
	// body. (The collector empties pools, so it is held off meanwhile.)
	inBody := func(b []byte) bool {
		for _, p := range shared {
			for _, body := range p.bodies {
				for off := 0; off+len(b) <= len(body); off += 16 << 10 {
					if &body[off] == &b[0] {
						return true
					}
				}
			}
		}
		return false
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ranged, err := d.GetRange("alice", "root", "g", 0, len(data)) // either fills the cache
	if err != nil {
		t.Fatal(err)
	}
	whole, err := d.GetFile("alice", "root", "f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if b := bufpool.Get(16 << 10); inBody(b) {
			t.Fatal("a view of a multi-get body reached the buffer pool")
		}
	}

	scribbled := 0
	for _, p := range shared {
		for _, body := range p.bodies {
			scribbled += len(body)
			for i := range body {
				body[i] = 0xEE
			}
		}
		if len(p.bodies) == 0 {
			t.Fatal("a provider was never asked through GetMany")
		}
	}
	if scribbled < 2*len(data) {
		t.Fatalf("only %d bytes travelled in multi-get bodies, want both reads' %d", scribbled, 2*len(data))
	}
	if !bytes.Equal(ranged, data) || !bytes.Equal(whole, data) {
		t.Fatal("a returned read aliases a multi-get body")
	}
	gets := d.Metrics().BulkGets
	cached, err := d.GetFile("alice", "root", "f")
	if err != nil || !bytes.Equal(cached, data) {
		t.Fatalf("cached read after the bodies were overwritten: err=%v, equal=%v", err, bytes.Equal(cached, data))
	}
	cachedRange, err := d.GetRange("alice", "root", "g", 0, len(data))
	if err != nil || !bytes.Equal(cachedRange, data) {
		t.Fatalf("cached range read after the bodies were overwritten: err=%v, equal=%v", err, bytes.Equal(cachedRange, data))
	}
	if d.Metrics().BulkGets != gets {
		t.Fatal("a second read went to the providers: the cache was not filled")
	}
}

// TestGetRangeUsesCacheAndFlights: a range read is the same read step as
// a whole-file one, so it fills and is served from the chunk cache, and
// concurrent range misses on one chunk generation share one ladder climb.
func TestGetRangeUsesCacheAndFlights(t *testing.T) {
	rig := newBulkRig(t, 6, false, core.Config{CacheBytes: 8 << 20})
	data := rig.defendedUpload(t, 256<<10)
	primary := -1 // of serial 0, the file's first 8 KiB
	for _, b := range core.StateOf(rig.d).Blobs {
		if b.Kind == core.BlobChunk && b.Serial == 0 {
			primary = b.ProvIdx
		}
	}
	rig.hooked[primary].SetPartitioned(true)

	// Chunk 0's primary is dark, so every reader misses the primary step
	// and takes the ladder; the leader stalls fetching parity until all
	// the others have joined its flight.
	const readers = 6
	release := make(chan struct{})
	for i, h := range rig.hooked {
		if i != primary {
			i := i
			h.SetBeforeGet(func(string) error { rig.gets[i].Add(1); <-release; return nil })
		}
	}
	results, errs := make([][]byte, readers), make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = rig.d.GetRange("alice", "root", "f", 100, 5000)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rig.d.Metrics().CoalescedReads != readers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", rig.d.Metrics().CoalescedReads, readers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i := range results {
		if errs[i] != nil || !bytes.Equal(results[i], data[100:5100]) {
			t.Fatalf("reader %d: err=%v, equal=%v", i, errs[i], bytes.Equal(results[i], data[100:5100]))
		}
	}
	if m := rig.d.Metrics(); m.Reconstructions != 1 {
		t.Errorf("%d reconstructions for %d coalesced readers, want 1", m.Reconstructions, readers)
	}

	// The chunk is cached now: any window of it costs no provider get.
	rig.resetCounts()
	got, err := rig.d.GetRange("alice", "root", "f", 4000, 4000)
	if err != nil || !bytes.Equal(got, data[4000:8000]) {
		t.Fatalf("repeated range read: err=%v, equal=%v", err, bytes.Equal(got, data[4000:8000]))
	}
	for i := range rig.gets {
		if n := rig.gets[i].Load(); n != 0 {
			t.Errorf("repeated range read asked provider %d for %d keys", i, n)
		}
	}
}

// BenchmarkGetFileDefended is the end-to-end benchmark's defended-large
// read in miniature: a 4 MiB file at PL3 (512 chunks of 8 KiB), a quarter
// misleading bytes, RAID-6, over six providers behind real HTTP servers.
// provider-reqs/op is what the primary-fetch step exists to lower: one
// request per chunk before it, one per 32 of a provider's chunks after.
func BenchmarkGetFileDefended(b *testing.B) {
	rig := newBulkRig(b, 6, true, core.Config{HedgeAfter: 50 * time.Millisecond})
	data := rig.defendedUpload(b, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := rig.d.GetFile("alice", "root", "f")
		if err != nil || len(got) != len(data) {
			b.Fatalf("GetFile: %d bytes, err=%v", len(got), err)
		}
	}
	b.StopTimer()
	var reqs int64
	for i := range rig.multiReq {
		reqs += rig.multiReq[i].Load() + rig.otherReq[i].Load()
	}
	m := rig.d.Metrics()
	b.ReportMetric(float64(reqs)/float64(b.N), "provider-reqs/op")
	b.ReportMetric(float64(m.HedgedReads)/float64(b.N), "hedged/op")
	b.ReportMetric(float64(m.Reconstructions)/float64(b.N), "reconstructions/op")
}

// BenchmarkRemoveFileDefended removes what BenchmarkGetFileDefended
// reads, over the same six HTTP providers. provider-reqs/op is what the
// delete step exists to lower: one request per blob (768) before it, one
// per 32 of a provider's blobs (24) after.
func BenchmarkRemoveFileDefended(b *testing.B) {
	rig := newBulkRig(b, 6, true, core.Config{})
	var reqs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rig.defendedUpload(b, 4<<20)
		b.StartTimer()
		if err := rig.d.RemoveFile("alice", "root", "f"); err != nil {
			b.Fatalf("RemoveFile: %v", err)
		}
		b.StopTimer()
		for j := range rig.multiReq {
			reqs += rig.multiReq[j].Load() + rig.otherReq[j].Load()
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(reqs)/float64(b.N), "provider-reqs/op")
}
