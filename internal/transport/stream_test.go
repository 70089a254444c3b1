package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// hookedDistributorFixture serves a distributor over in-process hooked
// providers, so tests can fail provider I/O mid-stream while talking to
// the real HTTP surface. Parallelism 1 makes the streamed read's fetches
// strictly sequential, and a failed fetch surfaces only once every chunk
// before it is on the wire.
func hookedDistributorFixture(t *testing.T, n, window int) (*Client, []*provider.MemProvider) {
	t.Helper()
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	hooked := make([]*provider.MemProvider, n)
	for i := 0; i < n; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("h%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hooked[i] = mem
		if err := fleet.Add(hooked[i]); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := core.New(core.Config{Fleet: fleet, StreamWindow: window, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	dsrv := httptest.NewServer(NewDistributorServer(dist))
	t.Cleanup(dsrv.Close)
	client := NewClient(dsrv.URL, dsrv.Client())
	if err := client.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	return client, hooked
}

func TestStreamUploadDownloadOverHTTP(t *testing.T) {
	client, _ := distributorFixture(t, 6)
	if err := client.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	data := make([]byte, 200_000)
	rng.Read(data)

	info, err := client.UploadFrom("bob", "pw", "s.bin", bytes.NewReader(data), privacy.Moderate, UploadOptions{MisleadFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes != len(data) || info.Chunks < 2 {
		t.Fatalf("FileInfo = %+v", info)
	}
	var buf bytes.Buffer
	n, err := client.GetFileTo(&buf, "bob", "pw", "s.bin")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("streamed read: %d bytes, equal=%v", n, bytes.Equal(buf.Bytes(), data))
	}
	// Interop both ways: the buffered endpoints see a streamed upload…
	got, err := client.GetFile("bob", "pw", "s.bin")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GetFile after UploadFrom: %v", err)
	}
	// …and a buffered upload streams back.
	if _, err := client.Upload("bob", "pw", "b.bin", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := client.GetFileTo(&buf, "bob", "pw", "b.bin"); err != nil || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("GetFileTo after Upload: %v", err)
	}
}

func TestStreamUploadOptionsSurviveWire(t *testing.T) {
	client, _ := distributorFixture(t, 6)
	if err := client.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	data := make([]byte, 70_000)
	rng.Read(data)
	key := make([]byte, 32)
	rng.Read(key)

	if _, err := client.UploadFrom("bob", "pw", "enc.bin", bytes.NewReader(data), privacy.High, UploadOptions{EncryptKey: key, Assurance: raid.RAID6}); err != nil {
		t.Fatal(err)
	}
	got, err := client.GetFile("bob", "pw", "enc.bin")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("encrypted streamed upload: %v", err)
	}
	// A bad option must be rejected with the same error identity as the
	// JSON endpoint.
	if _, err := client.UploadFrom("bob", "pw", "bad.bin", bytes.NewReader(data), privacy.High, UploadOptions{MisleadFraction: 2}); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("bad option over the wire: %v", err)
	}
}

func TestStreamErrorsSurviveWire(t *testing.T) {
	client, _ := distributorFixture(t, 5)
	if err := client.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	data := []byte("short file")
	if _, err := client.UploadFrom("bob", "pw", "dup.bin", bytes.NewReader(data), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.UploadFrom("bob", "pw", "dup.bin", bytes.NewReader(data), privacy.High, UploadOptions{}); !errors.Is(err, core.ErrExists) {
		t.Fatalf("duplicate: %v", err)
	}
	var buf bytes.Buffer
	if _, err := client.GetFileTo(&buf, "bob", "pw", "nope.bin"); !errors.Is(err, core.ErrNoSuchFile) {
		t.Fatalf("missing file: %v", err)
	}
	if _, err := client.GetFileTo(&buf, "bob", "wrong", "dup.bin"); !errors.Is(err, core.ErrAuth) {
		t.Fatalf("bad password: %v", err)
	}
}

// TestStreamBypassesResponseCap pins the satellite contract: the
// metadata/whole-buffer endpoints stay capped at maxRespRead, while the
// chunked file stream carries bodies of any size.
func TestStreamBypassesResponseCap(t *testing.T) {
	defer func(old int64) { maxRespRead = old }(maxRespRead)
	maxRespRead = 64 << 10

	client, _ := distributorFixture(t, 5)
	if err := client.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	data := make([]byte, 300_000) // well past the lowered 64 KiB cap
	rng.Read(data)
	if _, err := client.UploadFrom("bob", "pw", "big.bin", bytes.NewReader(data), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// The buffered JSON path refuses the oversize body…
	if _, err := client.GetFile("bob", "pw", "big.bin"); !errors.Is(err, ErrOversizeResponse) {
		t.Fatalf("buffered GetFile past the cap: %v", err)
	}
	// …while the stream path delivers it whole.
	var buf bytes.Buffer
	n, err := client.GetFileTo(&buf, "bob", "pw", "big.bin")
	if err != nil || n != int64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("streamed read past the cap: n=%d err=%v", n, err)
	}
}

// TestStreamTruncationDetected kills every provider after the first
// chunk is served: the server has already streamed bytes when the read
// fails, so it aborts the connection and the client must surface a
// truncation error — never a silent short body.
func TestStreamTruncationDetected(t *testing.T) {
	client, hooked := hookedDistributorFixture(t, 5, 1)
	rng := rand.New(rand.NewSource(37))
	data := make([]byte, 64<<10) // 8 chunks of 8 KiB at High
	rng.Read(data)
	if _, err := client.UploadFrom("bob", "pw", "cut.bin", bytes.NewReader(data), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	gets := 0
	for _, h := range hooked {
		h.SetBeforeGet(func(string) error {
			mu.Lock()
			defer mu.Unlock()
			gets++
			if gets > 1 {
				return provider.ErrOutage
			}
			return nil
		})
	}
	var buf bytes.Buffer
	n, err := client.GetFileTo(&buf, "bob", "pw", "cut.bin")
	if err == nil {
		t.Fatalf("truncated stream returned success (%d bytes)", n)
	}
	if !isNetworkError(err) {
		t.Fatalf("truncation surfaced as %v, want a transport error", err)
	}
	if n == 0 || n >= int64(len(data)) {
		t.Fatalf("delivered prefix %d of %d", n, len(data))
	}
	if !bytes.Equal(buf.Bytes()[:n], data[:n]) {
		t.Fatal("delivered prefix corrupt")
	}
}

// TestProxiedStreamTruncationDetected is TestStreamTruncationDetected
// behind a ShardProxy: when the shard's stream dies mid-body, the proxy's
// relay must abort the downstream connection too, so the client sees a
// transport error after a correct prefix, never a short body that ends
// cleanly.
func TestProxiedStreamTruncationDetected(t *testing.T) {
	direct, hooked := hookedDistributorFixture(t, 5, 1)
	sharded, err := NewShardedClient(direct.URLs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(NewShardProxy(sharded))
	t.Cleanup(proxy.Close)
	client := NewClient(proxy.URL, proxy.Client())
	data := patterned(64 << 10) // 8 chunks of 8 KiB at High
	if _, err := client.UploadFrom("bob", "pw", "cut.bin", bytes.NewReader(data), privacy.High, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	var gets atomic.Int32
	for _, h := range hooked {
		h.SetBeforeGet(func(string) error {
			if gets.Add(1) > 1 {
				return provider.ErrOutage
			}
			return nil
		})
	}
	var buf bytes.Buffer
	n, err := client.GetFileTo(&buf, "bob", "pw", "cut.bin")
	if err == nil || !isNetworkError(err) {
		t.Fatalf("truncated stream through the proxy: %d bytes, %v; want a transport error", n, err)
	}
	if n == 0 || n >= int64(len(data)) || !bytes.Equal(buf.Bytes(), data[:n]) {
		t.Fatalf("delivered prefix %d of %d bytes, or corrupt", n, len(data))
	}
}

// BenchmarkGetFileToLoopback is stream-large's read in miniature: a
// 32 MiB file at PL0 (512 chunks of 64 KiB), RAID-5, streamed by
// GetFileTo from six in-memory providers behind real HTTP servers, with
// the default Config (Parallelism fetch workers, a window of
// StreamWindow stripes, no hedging). It is the streaming read's point on
// the kernel trajectory; make profile-stream-get profiles it.
func BenchmarkGetFileToLoopback(b *testing.B) {
	f := newLoopbackFleet(b, 6, 10*time.Second, core.Config{})
	data := patterned(32 << 20)
	if _, err := f.dist.Upload("a", "pw", "f", data, privacy.Public, core.UploadOptions{Assurance: raid.RAID5}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := f.dist.GetFileTo(io.Discard, "a", "pw", "f"); err != nil || n != int64(len(data)) {
			b.Fatalf("GetFileTo: %d bytes, err=%v", n, err)
		}
	}
}

// BenchmarkUploadStreamLoopback is BenchmarkGetFileToLoopback's put-side
// twin and stream-large's write in miniature: a 32 MiB UploadStream at
// PL0 (512 chunks of 64 KiB), RAID-5, into six in-memory providers
// behind real HTTP servers, with the default Config. The file is removed
// untimed after each upload. make profile-stream-put profiles it.
func BenchmarkUploadStreamLoopback(b *testing.B) {
	f := newLoopbackFleet(b, 6, 10*time.Second, core.Config{})
	data := patterned(32 << 20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.dist.UploadStream("a", "pw", "f", bytes.NewReader(data), privacy.Public, core.UploadOptions{Assurance: raid.RAID5}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := f.dist.RemoveFile("a", "pw", "f"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
