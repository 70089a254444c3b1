package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// smallChunks shrinks every level's chunk size so multi-stripe files fit
// in a few KiB and stripe boundaries land at test-friendly offsets
// (High: 128-byte chunks, width 4 ⇒ 512-byte stripes).
func smallChunks() privacy.ChunkSizePolicy {
	return privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
		privacy.Public:   1024,
		privacy.Low:      512,
		privacy.Moderate: 256,
		privacy.High:     128,
	}}
}

// streamDistributor builds a distributor over n memory providers with the
// small chunk policy; mut tweaks the config before New.
func streamDistributor(t *testing.T, n int, mut func(*Config)) *Distributor {
	t.Helper()
	cfg := Config{Fleet: testFleet(t, n), ChunkPolicy: smallChunks()}
	if mut != nil {
		mut(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "guest", privacy.Public); err != nil {
		t.Fatal(err)
	}
	return d
}

// hookedStreamDistributor is streamDistributor with the providers returned so
// tests can count, fail or darken provider I/O.
func hookedStreamDistributor(t *testing.T, n int, mut func(*Config)) (*Distributor, []*provider.MemProvider) {
	t.Helper()
	f, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	hooked := make([]*provider.MemProvider, n)
	for i := 0; i < n; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("S%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hooked[i] = mem
		if err := f.Add(hooked[i]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Fleet: f, Parallelism: 1, ChunkPolicy: smallChunks()}
	if mut != nil {
		mut(&cfg)
	}
	d, err := New(cfg)
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

// getLog records every provider Get across a hooked fleet and can darken
// individual providers (their gets fail with ErrOutage after recording).
type getLog struct {
	mu   sync.Mutex
	keys []string
	dark map[int]bool
}

func attachGetLog(hooked []*provider.MemProvider) *getLog {
	g := &getLog{dark: make(map[int]bool)}
	for i, h := range hooked {
		i := i
		h.SetBeforeGet(func(key string) error {
			g.mu.Lock()
			g.keys = append(g.keys, key)
			dark := g.dark[i]
			g.mu.Unlock()
			if dark {
				return provider.ErrOutage
			}
			return nil
		})
	}
	return g
}

func (g *getLog) reset() {
	g.mu.Lock()
	g.keys = nil
	g.mu.Unlock()
}

func (g *getLog) snapshot() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.keys...)
}

func (g *getLog) setDark(idx int, v bool) {
	g.mu.Lock()
	g.dark[idx] = v
	g.mu.Unlock()
}

// failFleetPutsAfter makes every provider put beyond the k-th (counted
// across the whole fleet) fail with ErrOutage — once tripped, failover
// has nowhere to go and the write must roll back.
func failFleetPutsAfter(hooked []*provider.MemProvider, k int) {
	var mu sync.Mutex
	n := 0
	for _, h := range hooked {
		h.SetBeforePut(func(int, string) error {
			mu.Lock()
			defer mu.Unlock()
			n++
			if n > k {
				return provider.ErrOutage
			}
			return nil
		})
	}
}

func clearFleetPutHooks(hooked []*provider.MemProvider) {
	for _, h := range hooked {
		h.SetBeforePut(nil)
	}
}

func fleetKeyCount(hooked []*provider.MemProvider) int {
	n := 0
	for _, h := range hooked {
		n += len(h.Keys())
	}
	return n
}

// getFileTo drains a streaming read into memory for equality checks.
func getFileTo(t *testing.T, d *Distributor, password, filename string) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := d.GetFileTo(&buf, "alice", password, filename)
	if err != nil {
		t.Fatalf("GetFileTo(%s): %v", filename, err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("GetFileTo(%s): reported %d bytes, wrote %d", filename, n, buf.Len())
	}
	return buf.Bytes()
}

func TestUploadStreamRoundTrip(t *testing.T) {
	// High ⇒ 128-byte chunks; width 4 ⇒ 512-byte stripes. The sizes walk
	// every boundary: empty, sub-chunk, exact chunk, exact stripe, one
	// past, and a multi-stripe file with a short tail.
	sizes := []int{0, 1, 127, 128, 129, 512, 513, 1024, 3000}
	d := streamDistributor(t, 6, func(c *Config) { c.StreamWindow = 2 })
	for _, size := range sizes {
		name := fmt.Sprintf("f%d.bin", size)
		data := payload(size, int64(size)+1)
		info, err := d.UploadStream("alice", "root", name, bytes.NewReader(data), privacy.High, UploadOptions{})
		if err != nil {
			t.Fatalf("UploadStream(%d bytes): %v", size, err)
		}
		if info.Bytes != size {
			t.Fatalf("size %d: FileInfo.Bytes = %d", size, info.Bytes)
		}
		wantChunks := (size + 127) / 128
		if size == 0 {
			wantChunks = 1
		}
		if info.Chunks != wantChunks {
			t.Fatalf("size %d: %d chunks, want %d", size, info.Chunks, wantChunks)
		}
		if got := getFileTo(t, d, "root", name); !bytes.Equal(got, data) {
			t.Fatalf("size %d: GetFileTo mismatch (%d bytes back)", size, len(got))
		}
		// Interop: the buffered read path serves a streamed upload.
		got, err := d.GetFile("alice", "root", name)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("size %d: GetFile after UploadStream: %v", size, err)
		}
	}
	m := d.Metrics()
	if m.StreamUploads != int64(len(sizes)) || m.Uploads != int64(len(sizes)) {
		t.Fatalf("stream uploads %d / uploads %d, want %d", m.StreamUploads, m.Uploads, len(sizes))
	}
	if m.StreamReads != int64(len(sizes)) {
		t.Fatalf("stream reads %d, want %d", m.StreamReads, len(sizes))
	}
}

func TestUploadStreamOptionVariants(t *testing.T) {
	cases := []struct {
		name     string
		pl       privacy.Level
		password string
		window   int
		opts     UploadOptions
	}{
		{"raid6", privacy.High, "root", 2, UploadOptions{Assurance: raid.RAID6}},
		{"noparity", privacy.High, "root", 2, UploadOptions{NoParity: true}},
		{"replicas", privacy.High, "root", 2, UploadOptions{Replicas: 2}},
		{"mislead", privacy.High, "root", 2, UploadOptions{MisleadFraction: 0.25}},
		{"misleadlines", privacy.High, "root", 2, UploadOptions{MisleadLines: [][]byte{[]byte("decoy alpha"), []byte("decoy beta")}}},
		{"encrypted", privacy.High, "root", 2, UploadOptions{EncryptKey: payload(32, 9)}},
		{"public", privacy.Public, "guest", 2, UploadOptions{}},
		{"lockstep", privacy.High, "root", 1, UploadOptions{}},
		{"widewindow", privacy.High, "root", 8, UploadOptions{MisleadFraction: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := streamDistributor(t, 7, func(c *Config) { c.StreamWindow = tc.window })
			data := payload(3000, 42)
			if _, err := d.UploadStream("alice", tc.password, "v.bin", bytes.NewReader(data), tc.pl, tc.opts); err != nil {
				t.Fatalf("UploadStream: %v", err)
			}
			if got := getFileTo(t, d, tc.password, "v.bin"); !bytes.Equal(got, data) {
				t.Fatal("GetFileTo mismatch")
			}
			// Chunk-granular interop.
			first, err := d.GetChunk("alice", tc.password, "v.bin", 0)
			if err != nil || !bytes.Equal(first, data[:len(first)]) {
				t.Fatalf("GetChunk(0): %v", err)
			}
		})
	}
}

// TestUploadStreamMatchesUpload pushes the same bytes through the
// whole-buffer and the streaming write paths and checks the results are
// indistinguishable to every read path.
func TestUploadStreamMatchesUpload(t *testing.T) {
	data := payload(2500, 77)
	opts := UploadOptions{MisleadFraction: 0.2}
	db := streamDistributor(t, 6, nil)
	ds := streamDistributor(t, 6, nil)
	bi, err := db.Upload("alice", "root", "m.bin", data, privacy.High, opts)
	if err != nil {
		t.Fatal(err)
	}
	si, err := ds.UploadStream("alice", "root", "m.bin", bytes.NewReader(data), privacy.High, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Chunks != si.Chunks || bi.Raid != si.Raid || bi.PL != si.PL {
		t.Fatalf("FileInfo diverged: buffered %+v, streamed %+v", bi, si)
	}
	for _, d := range []*Distributor{db, ds} {
		if got, err := d.GetFile("alice", "root", "m.bin"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("GetFile: %v", err)
		}
		if got, err := d.GetRange("alice", "root", "m.bin", 500, 700); err != nil || !bytes.Equal(got, data[500:1200]) {
			t.Fatalf("GetRange: %v", err)
		}
	}
}

// guardReader fails the test if the distributor reads from it — used to
// prove validation errors fire before any bytes are consumed.
type guardReader struct{ t *testing.T }

func (r guardReader) Read([]byte) (int, error) {
	r.t.Error("UploadStream read from the reader before validating")
	return 0, io.EOF
}

func TestUploadStreamValidationAndDuplicates(t *testing.T) {
	d := streamDistributor(t, 6, nil)
	if _, err := d.UploadStream("alice", "root", "bad.bin", guardReader{t}, privacy.High,
		UploadOptions{MisleadFraction: 1.5}); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad mislead fraction: %v", err)
	}
	if _, err := d.UploadStream("alice", "root", "", guardReader{t}, privacy.High, UploadOptions{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty filename: %v", err)
	}
	if _, err := d.UploadStream("alice", "wrong", "auth.bin", guardReader{t}, privacy.High, UploadOptions{}); err == nil {
		t.Fatal("bad password accepted")
	}
	data := payload(600, 3)
	if _, err := d.Upload("alice", "root", "dup.bin", data, privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.UploadStream("alice", "root", "dup.bin", guardReader{t}, privacy.High, UploadOptions{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate over Upload: %v", err)
	}
	if _, err := d.UploadStream("alice", "root", "s.bin", bytes.NewReader(data), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.UploadStream("alice", "root", "s.bin", guardReader{t}, privacy.High, UploadOptions{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate over UploadStream: %v", err)
	}
}

// streamAborted asserts the post-abort state: no blobs anywhere, no file,
// no orphans, and the filename free for a clean retry.
func streamAborted(t *testing.T, d *Distributor, hooked []*provider.MemProvider, name string, data []byte) {
	t.Helper()
	if n := fleetKeyCount(hooked); n != 0 {
		t.Fatalf("%d blobs survived the rollback", n)
	}
	if _, err := d.GetFile("alice", "root", name); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("aborted file visible: %v", err)
	}
	rep, err := d.AuditOrphans(false)
	if err != nil {
		t.Fatal(err)
	}
	for prov, keys := range rep.Orphans {
		if len(keys) > 0 {
			t.Fatalf("%d orphans on %s after abort", len(keys), prov)
		}
	}
	// The reservation must have been released: the same name uploads.
	if _, err := d.UploadStream("alice", "root", name, bytes.NewReader(data), privacy.High, UploadOptions{}); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	if got := getFileTo(t, d, "root", name); !bytes.Equal(got, data) {
		t.Fatal("retry round-trip mismatch")
	}
}

func TestUploadStreamShipFailureRollsBack(t *testing.T) {
	// 8 stripes of 5 puts each; every put after the 7th fails, so the
	// failure lands mid-stream with earlier stripes already shipped.
	d, hooked := hookedStreamDistributor(t, 5, func(c *Config) { c.StreamWindow = 2 })
	failFleetPutsAfter(hooked, 7)
	data := payload(8*512, 11)
	_, err := d.UploadStream("alice", "root", "roll.bin", bytes.NewReader(data), privacy.High, UploadOptions{})
	if err == nil {
		t.Fatal("upload succeeded despite exhausted failover")
	}
	// One put worker: put 8 is the second stripe's third data shard, and
	// the placement error names that blob and its level.
	if !errors.Is(err, ErrPlacement) || !strings.Contains(err.Error(), "PL>=PL3(high) left for a chunk blob") {
		t.Fatalf("exhausted failover error = %v, want ErrPlacement naming the chunk blob and PL3", err)
	}
	if m := d.Metrics(); m.RollbackDeletes == 0 {
		t.Fatal("no rollback deletes recorded")
	}
	clearFleetPutHooks(hooked)
	streamAborted(t, d, hooked, "roll.bin", data)
}

// brokenReader yields data, then err.
type brokenReader struct {
	data []byte
	off  int
	err  error
}

func (r *brokenReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, r.err
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestUploadStreamReadErrorRollsBack: a reader that fails mid-chunk
// aborts the upload. io.ErrUnexpectedEOF is how net/http reports a body
// cut short of its Content-Length or its terminating chunk, so it must
// fail the upload like any other error, never end the file early.
func TestUploadStreamReadErrorRollsBack(t *testing.T) {
	for _, cut := range []error{errors.New("disk on fire"), io.ErrUnexpectedEOF} {
		t.Run(cut.Error(), func(t *testing.T) {
			d, hooked := hookedStreamDistributor(t, 5, func(c *Config) { c.StreamWindow = 2 })
			data := payload(8*512, 13)
			_, err := d.UploadStream("alice", "root", "cut.bin", &brokenReader{data: data[:3*512+100], err: cut}, privacy.High, UploadOptions{})
			if !errors.Is(err, cut) {
				t.Fatalf("upload over a stream that broke off: %v, want %v", err, cut)
			}
			streamAborted(t, d, hooked, "cut.bin", data)
		})
	}
}

// failingWriter accepts limit bytes then refuses.
type failingWriter struct {
	limit   int
	written int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		return 0, errors.New("sink full")
	}
	w.written += len(p)
	return len(p), nil
}

func TestGetFileToWriterError(t *testing.T) {
	d := streamDistributor(t, 6, func(c *Config) { c.StreamWindow = 3 })
	data := payload(6*512, 21)
	if _, err := d.UploadStream("alice", "root", "w.bin", bytes.NewReader(data), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	w := &failingWriter{limit: 512}
	n, err := d.GetFileTo(w, "alice", "root", "w.bin")
	if err == nil {
		t.Fatal("writer failure not reported")
	}
	if n != int64(w.written) || n >= int64(len(data)) {
		t.Fatalf("written %d (writer saw %d) of %d", n, w.written, len(data))
	}
}

func TestGetFileToDegradedProvider(t *testing.T) {
	d, hooked := hookedStreamDistributor(t, 5, func(c *Config) { c.StreamWindow = 2 })
	data := payload(4*512, 31)
	if _, err := d.UploadStream("alice", "root", "deg.bin", bytes.NewReader(data), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	g := attachGetLog(hooked)
	g.setDark(0, true)
	if got := getFileTo(t, d, "root", "deg.bin"); !bytes.Equal(got, data) {
		t.Fatal("degraded GetFileTo mismatch")
	}
	if m := d.Metrics(); m.Reconstructions == 0 {
		t.Fatal("dark provider served without reconstruction")
	}
}

// TestGetFileToCacheInterplay: streamed reads consume the cache but never
// populate it — a whole-file pass must not evict the point-read working
// set, yet cached chunks should spare provider round-trips.
func TestGetFileToCacheInterplay(t *testing.T) {
	d, hooked := hookedStreamDistributor(t, 5, func(c *Config) {
		c.StreamWindow = 2
		c.CacheBytes = 1 << 20
	})
	data := payload(4*512, 41)
	for _, name := range []string{"hot.bin", "cold.bin"} {
		if _, err := d.UploadStream("alice", "root", name, bytes.NewReader(data), privacy.High, UploadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm hot.bin through the buffered path (which does fill the cache)…
	if _, err := d.GetFile("alice", "root", "hot.bin"); err != nil {
		t.Fatal(err)
	}
	// …and pass cold.bin through the streaming path, which must not.
	if got := getFileTo(t, d, "root", "cold.bin"); !bytes.Equal(got, data) {
		t.Fatal("cold.bin mismatch")
	}
	g := attachGetLog(hooked)
	for i := range hooked {
		g.setDark(i, true)
	}
	// Every provider dark: hot.bin streams fully from cache…
	if got := getFileTo(t, d, "root", "hot.bin"); !bytes.Equal(got, data) {
		t.Fatal("cached stream mismatch")
	}
	// …while cold.bin was never cached by its streamed read, so the same
	// request now has nowhere to go.
	if _, err := d.GetFileTo(io.Discard, "alice", "root", "cold.bin"); err == nil {
		t.Fatal("cold.bin served with all providers dark — streamed read populated the cache?")
	}
}

// fileStripes returns, for each stripe of the file in serial order, the
// set of blob keys belonging to that stripe (members, mirrors, parity)
// and the fleet index hosting each data member.
func fileStripes(t *testing.T, d *Distributor, name string) (vids []map[string]bool, memberProvs [][]int) {
	t.Helper()
	d.mu.RLock()
	defer d.mu.RUnlock()
	fe := d.clients["alice"].Files[name]
	if fe == nil {
		t.Fatalf("no file %s", name)
	}
	seen := make(map[int]bool)
	for _, idx := range fe.ChunkIdx {
		sid := d.chunks[idx].StripeID
		if seen[sid] {
			continue
		}
		seen[sid] = true
		st := &d.stripes[sid]
		set := make(map[string]bool)
		var provs []int
		for _, ci := range st.Members {
			ce := &d.chunks[ci]
			set[ce.VirtualID] = true
			provs = append(provs, ce.CPIndex)
			for _, m := range ce.Mirrors {
				set[m.VirtualID] = true
			}
		}
		for _, p := range st.Parity {
			set[p.VirtualID] = true
		}
		vids = append(vids, set)
		memberProvs = append(memberProvs, provs)
	}
	return vids, memberProvs
}

func assertKeysWithin(t *testing.T, keys []string, allowed map[string]bool, label string) {
	t.Helper()
	for _, k := range keys {
		if !allowed[k] {
			t.Fatalf("%s: fetched shard %s outside the touched stripe", label, k)
		}
	}
}

// TestGetRangeStripeSelective pins the satellite guarantee: a range read
// only ever touches shards of the stripes its span overlaps — healthy
// reads fetch exactly the spanned chunks, and a degraded stripe recruits
// only its own siblings for reconstruction.
func TestGetRangeStripeSelective(t *testing.T) {
	// 3 stripes × 4 chunks × 128 bytes, RAID-5 on 5 providers.
	d, hooked := hookedStreamDistributor(t, 5, nil)
	data := payload(3*512, 51)
	if _, err := d.Upload("alice", "root", "r.bin", data, privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	vids, memberProvs := fileStripes(t, d, "r.bin")
	if len(vids) != 3 {
		t.Fatalf("expected 3 stripes, got %d", len(vids))
	}
	g := attachGetLog(hooked)

	healthy := []struct {
		name        string
		off, length int
		gets        int
		stripes     []int
	}{
		{"exact-chunk", 128, 128, 1, []int{0}},
		{"exact-stripe", 512, 512, 4, []int{1}},
		{"cross-stripe", 384, 256, 2, []int{0, 1}},
		{"interior", 650, 100, 1, []int{1}},
	}
	for _, tc := range healthy {
		g.reset()
		got, err := d.GetRange("alice", "root", "r.bin", tc.off, tc.length)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, data[tc.off:tc.off+tc.length]) {
			t.Fatalf("%s: wrong bytes", tc.name)
		}
		keys := g.snapshot()
		if len(keys) != tc.gets {
			t.Fatalf("%s: %d provider gets, want %d", tc.name, len(keys), tc.gets)
		}
		allowed := make(map[string]bool)
		for _, s := range tc.stripes {
			for k := range vids[s] {
				allowed[k] = true
			}
		}
		assertKeysWithin(t, keys, allowed, tc.name)
	}

	// Darken the provider of stripe 1's second member and read exactly
	// stripe 1: reconstruction must recruit only stripe-1 siblings.
	before := d.Metrics().Reconstructions
	g.setDark(memberProvs[1][1], true)
	g.reset()
	got, err := d.GetRange("alice", "root", "r.bin", 512, 512)
	if err != nil {
		t.Fatalf("degraded stripe read: %v", err)
	}
	if !bytes.Equal(got, data[512:1024]) {
		t.Fatal("degraded stripe read: wrong bytes")
	}
	assertKeysWithin(t, g.snapshot(), vids[1], "degraded")
	if d.Metrics().Reconstructions == before {
		t.Fatal("degraded read did not reconstruct")
	}
}

func TestGetRangeStripeSelectiveRAID6(t *testing.T) {
	// RAID-6 on 6 providers: width 4, 2 parity — a stripe survives two
	// dark members, still recruiting only its own shards.
	d, hooked := hookedStreamDistributor(t, 6, nil)
	data := payload(3*512, 61)
	if _, err := d.Upload("alice", "root", "r6.bin", data, privacy.High, UploadOptions{Assurance: raid.RAID6}); err != nil {
		t.Fatal(err)
	}
	vids, memberProvs := fileStripes(t, d, "r6.bin")
	g := attachGetLog(hooked)
	if memberProvs[1][0] == memberProvs[1][1] {
		t.Fatalf("stripe 1 members share provider %d; placement regression", memberProvs[1][0])
	}
	g.setDark(memberProvs[1][0], true)
	g.setDark(memberProvs[1][1], true)
	got, err := d.GetRange("alice", "root", "r6.bin", 512, 512)
	if err != nil {
		t.Fatalf("double-degraded stripe read: %v", err)
	}
	if !bytes.Equal(got, data[512:1024]) {
		t.Fatal("double-degraded stripe read: wrong bytes")
	}
	assertKeysWithin(t, g.snapshot(), vids[1], "raid6-degraded")
}

// ---- Bounded-memory regression (satellite: make memcheck) ----

// patternByte is a cheap deterministic byte stream indexed by offset, so
// GiB-scale transfers need no materialized expected buffer.
func patternByte(off int64) byte {
	x := uint64(off)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	return byte(x >> 56)
}

// patternReader yields size bytes of patternByte without allocating.
type patternReader struct{ size, off int64 }

func (r *patternReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	n := len(p)
	if rem := r.size - r.off; int64(n) > rem {
		n = int(rem)
	}
	for i := 0; i < n; i++ {
		p[i] = patternByte(r.off + int64(i))
	}
	r.off += int64(n)
	return n, nil
}

// patternWriter verifies a byte stream against patternByte as it lands.
type patternWriter struct {
	off int64
	bad int64 // offset of the first mismatch, -1 if none
}

func (w *patternWriter) Write(p []byte) (int, error) {
	for i, b := range p {
		if b != patternByte(w.off+int64(i)) {
			if w.bad < 0 {
				w.bad = w.off + int64(i)
			}
			return i, fmt.Errorf("byte %d corrupt", w.off+int64(i))
		}
	}
	w.off += int64(len(p))
	return len(p), nil
}

// diskDistributor builds a distributor over disk providers so provider
// storage lives outside the Go heap and HeapAlloc measures only the
// streaming pipeline.
func diskDistributor(t *testing.T, n, window, chunkSize int) *Distributor {
	t.Helper()
	root := t.TempDir()
	f, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, err := provider.NewDiskProvider(provider.Info{
			Name: fmt.Sprintf("D%d", i), PL: privacy.High, CL: 1,
		}, filepath.Join(root, fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	d, err := New(Config{
		Fleet:        f,
		StreamWindow: window,
		ChunkPolicy: privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
			privacy.Public: chunkSize, privacy.Low: chunkSize,
			privacy.Moderate: chunkSize, privacy.High: chunkSize,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "guest", privacy.Public); err != nil {
		t.Fatal(err)
	}
	return d
}

// heapGrowth runs fn while sampling HeapAlloc and returns the peak growth
// over the post-GC baseline.
func heapGrowth(fn func()) uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	var peak atomic.Uint64
	peak.Store(baseline)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var s runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&s)
				for {
					cur := peak.Load()
					if s.HeapAlloc <= cur || peak.CompareAndSwap(cur, s.HeapAlloc) {
						break
					}
				}
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&ms)
	for {
		cur := peak.Load()
		if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
			break
		}
	}
	return peak.Load() - baseline
}

// streamMemoryCheck pushes fileBytes through an upload — UploadStream, or
// when buffered the byte-slice Upload, whose caller-owned slice is in the
// baseline — and GetFileTo on a disk-backed fleet and asserts both
// directions stay under budget: window-bounded, not file-bounded.
func streamMemoryCheck(t *testing.T, fileBytes int64, chunkSize, window int, budget uint64, buffered bool) {
	t.Helper()
	// A tighter GC target makes HeapAlloc track live memory instead of
	// GOGC-paced garbage, so the bound measures the pipeline, not pacing.
	// The pacer lets garbage grow to that share of the live heap, which in
	// the buffered case includes the caller's slice: tighter still there.
	gcPercent := 50
	if buffered {
		gcPercent = 10
	}
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	d := diskDistributor(t, 6, window, chunkSize)

	var data []byte
	if buffered {
		data = make([]byte, fileBytes)
		if _, err := io.ReadFull(&patternReader{size: fileBytes}, data); err != nil {
			t.Fatal(err)
		}
	}
	var info FileInfo
	upGrowth := heapGrowth(func() {
		var err error
		if buffered {
			info, err = d.Upload("alice", "guest", "big.bin", data, privacy.Public, UploadOptions{})
		} else {
			info, err = d.UploadStream("alice", "guest", "big.bin", &patternReader{size: fileBytes}, privacy.Public, UploadOptions{})
		}
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
	})
	data = nil
	if int64(info.Bytes) != fileBytes {
		t.Fatalf("uploaded %d of %d bytes", info.Bytes, fileBytes)
	}
	var written int64
	downGrowth := heapGrowth(func() {
		w := &patternWriter{bad: -1}
		var err error
		written, err = d.GetFileTo(w, "alice", "guest", "big.bin")
		if err != nil {
			t.Fatalf("GetFileTo: %v (first bad byte %d)", err, w.bad)
		}
	})
	if written != fileBytes {
		t.Fatalf("read back %d of %d bytes", written, fileBytes)
	}
	windowBytes := uint64(window) * 4 * uint64(chunkSize) // width 4 data shards per stripe
	t.Logf("file %d MiB, window %d MiB: upload growth %d MiB, download growth %d MiB (budget %d MiB)",
		fileBytes>>20, windowBytes>>20, upGrowth>>20, downGrowth>>20, budget>>20)
	if upGrowth > budget {
		t.Fatalf("upload heap growth %d exceeds budget %d for a %d-byte file", upGrowth, budget, fileBytes)
	}
	if downGrowth > budget {
		t.Fatalf("download heap growth %d exceeds budget %d for a %d-byte file", downGrowth, budget, fileBytes)
	}
}

// TestStreamBoundedMemorySmall is the always-on variant: 32 MiB through a
// 2-stripe window (512 KiB of payload in flight). The 16 MiB budget is
// half the file — loose enough for GC noise, tight enough that buffering
// the whole file would trip it.
func TestStreamBoundedMemorySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("disk-backed memory check skipped in -short")
	}
	t.Run("UploadStream", func(t *testing.T) { streamMemoryCheck(t, 32<<20, 64<<10, 2, 16<<20, false) })
	// The byte-slice entry point is the same pipeline: its scratch is a
	// window of stripes too, not a second copy of the file plus parity.
	t.Run("Upload", func(t *testing.T) { streamMemoryCheck(t, 32<<20, 64<<10, 2, 16<<20, true) })
}

// TestStreamBoundedMemoryLarge is the `make memcheck` gate: 256 MiB — a
// 128× multiple of the 2 MiB in-flight window — must fit in a 48 MiB
// heap-growth budget. Any O(file) buffer on the path blows it by 5×.
func TestStreamBoundedMemoryLarge(t *testing.T) {
	if os.Getenv("MEMCHECK") == "" {
		t.Skip("set MEMCHECK=1 (make memcheck) to run the 256 MiB sweep")
	}
	streamMemoryCheck(t, 256<<20, 256<<10, 2, 48<<20, false)
}
