package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
)

func newProviderPair(t *testing.T, info provider.Info) (*provider.MemProvider, *RemoteProvider) {
	t.Helper()
	mem, err := provider.New(info, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewProviderServer(mem))
	t.Cleanup(srv.Close)
	remote, err := DialProvider(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mem, remote
}

func TestRemoteProviderInfo(t *testing.T) {
	info := provider.Info{Name: "NetStore", PL: privacy.Moderate, CL: 2}
	_, remote := newProviderPair(t, info)
	if remote.Info() != info {
		t.Fatalf("Info = %+v, want %+v", remote.Info(), info)
	}
}

func TestRemoteProviderPutGetDelete(t *testing.T) {
	_, remote := newProviderPair(t, provider.Info{Name: "N", PL: privacy.High, CL: 1})
	data := []byte("hello over the wire")
	if err := remote.Put("k1", data); err != nil {
		t.Fatal(err)
	}
	got, err := remote.Get("k1")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := remote.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Get("k1"); !errors.Is(err, provider.ErrNotFound) {
		t.Fatalf("Get deleted = %v, want ErrNotFound", err)
	}
	if err := remote.Delete("k1"); !errors.Is(err, provider.ErrNotFound) {
		t.Fatalf("Delete missing = %v, want ErrNotFound", err)
	}
}

func TestRemoteProviderBinaryPayload(t *testing.T) {
	_, remote := newProviderPair(t, provider.Info{Name: "B", PL: privacy.High, CL: 0})
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 10_000)
	rng.Read(data)
	if err := remote.Put("bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := remote.Get("bin")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("binary round trip failed: %v", err)
	}
}

func TestRemoteProviderKeySpecialChars(t *testing.T) {
	_, remote := newProviderPair(t, provider.Info{Name: "S", PL: privacy.High, CL: 0})
	key := "weird/key with spaces?&#"
	if err := remote.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := remote.Get(key)
	if err != nil || string(got) != "v" {
		t.Fatalf("special-char key: %q, %v", got, err)
	}
}

// TestRemoteProviderOutagePropagates: Down() is the last thing the
// provider was heard to say. The outage switch says it directly; an
// outage the client was not told about is learnt from the first
// data-plane call that draws a 503, and unlearnt from the first that
// does not.
func TestRemoteProviderOutagePropagates(t *testing.T) {
	mem, remote := newProviderPair(t, provider.Info{Name: "O", PL: privacy.High, CL: 0})
	_ = mem.Put("k", []byte("v"))
	if remote.Down() {
		t.Fatal("healthy provider reports down")
	}
	remote.SetOutage(true)
	if !mem.Down() {
		t.Fatal("SetOutage did not reach the server")
	}
	if !remote.Down() {
		t.Fatal("Down() false after SetOutage(true)")
	}
	if _, err := remote.Get("k"); !errors.Is(err, provider.ErrOutage) {
		t.Fatalf("Get during outage = %v, want ErrOutage", err)
	}
	remote.SetOutage(false)
	if remote.Down() {
		t.Fatal("Down() true after SetOutage(false)")
	}
	if _, err := remote.Get("k"); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}

	mem.SetOutage(true) // behind the client's back
	if remote.Down() {
		t.Fatal("Down() learnt of an outage nothing has reported yet: it asked the provider")
	}
	if _, errs := remote.GetMany([]string{"k", "k"}); !errors.Is(errs[0], provider.ErrOutage) {
		t.Fatalf("GetMany during outage = %v, want ErrOutage", errs[0])
	}
	if !remote.Down() {
		t.Fatal("Down() false after a multi-get answered 503 per key")
	}
	if _, err := remote.Get("missing"); !errors.Is(err, provider.ErrOutage) {
		t.Fatalf("Get during outage = %v, want ErrOutage", err)
	}
	if !remote.Down() {
		t.Fatal("Down() false after a 503")
	}
	mem.SetOutage(false)
	if _, err := remote.Get("missing"); !errors.Is(err, provider.ErrNotFound) {
		t.Fatalf("Get of a missing key = %v, want ErrNotFound", err)
	}
	if remote.Down() {
		t.Fatal("Down() true after the provider answered (a 404 is an answer)")
	}
}

// TestRemoteProviderUnreachableIsDown: a provider that dies silently is
// down from the first call it fails to answer — not before, nothing asks
// it — and once it is back, calling Down() is enough to find that out:
// each call may start one background probe per probeTimeout, and no
// data-plane traffic is needed.
func TestRemoteProviderUnreachableIsDown(t *testing.T) {
	mem, _ := provider.New(provider.Info{Name: "gone", PL: privacy.Low, CL: 0}, provider.Options{})
	gate := newProviderGate(NewProviderServer(mem))
	srv := httptest.NewServer(gate)
	remote, err := DialProvider(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Listener.Addr().String()
	srv.Close()
	if remote.Down() {
		t.Fatal("killed provider reads down before any call to it failed")
	}
	if err := remote.Put("k", []byte("v")); !errors.Is(err, provider.ErrOutage) {
		t.Fatalf("Put to dead server = %v, want ErrOutage", err)
	}
	if !remote.Down() {
		t.Fatal("unreachable provider reports up after a failed Put")
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot listen on %s again: %v", addr, err)
	}
	back := httptest.NewUnstartedServer(gate)
	back.Listener.Close()
	back.Listener = ln
	back.Start()
	t.Cleanup(back.Close)
	deadline := time.Now().Add(5 * probeTimeout)
	for remote.Down() {
		if time.Now().After(deadline) {
			t.Fatalf("restarted provider still down after %v of Down() calls", 5*probeTimeout)
		}
		time.Sleep(probeTimeout / 20)
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.seen["GET /v1/health"] == 0 || gate.seen["PUT /v1/chunks/"] != 0 || gate.seen["GET /v1/chunks/"] != 0 {
		t.Fatalf("provider came back on %v, want health probes only", gate.seen)
	}
}

func TestRemoteProviderIntrospection(t *testing.T) {
	mem, remote := newProviderPair(t, provider.Info{Name: "I", PL: privacy.High, CL: 0})
	_ = mem.Put("b", []byte("2"))
	_ = mem.Put("a", []byte("1"))
	keys := remote.Keys()
	if len(keys) != 2 || keys[0] != "a" {
		t.Fatalf("Keys = %v", keys)
	}
	if remote.Len() != 2 {
		t.Fatalf("Len = %d", remote.Len())
	}
	d := remote.Dump()
	if string(d["a"]) != "1" || string(d["b"]) != "2" {
		t.Fatalf("Dump = %v", d)
	}
	u := remote.Usage()
	if u.Puts != 2 {
		t.Fatalf("Usage.Puts = %d", u.Puts)
	}
}

func TestDialProviderFailure(t *testing.T) {
	if _, err := DialProvider("http://127.0.0.1:1", nil); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

// distributorFixture stands up a full networked stack: HTTP providers, a
// distributor using them remotely, and an HTTP distributor server with a
// client — the paper's whole architecture as processes.
func distributorFixture(t *testing.T, nProviders int) (*Client, []*provider.MemProvider) {
	t.Helper()
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	mems := make([]*provider.MemProvider, nProviders)
	for i := 0; i < nProviders; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("net%d", i), PL: privacy.High, CL: privacy.CostLevel(i % 4),
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mems[i] = mem
		srv := httptest.NewServer(NewProviderServer(mem))
		t.Cleanup(srv.Close)
		remote, err := DialProvider(srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.Add(remote); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := core.New(core.Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	dsrv := httptest.NewServer(NewDistributorServer(dist))
	t.Cleanup(dsrv.Close)
	return NewClient(dsrv.URL, dsrv.Client()), mems
}

func TestEndToEndOverHTTP(t *testing.T) {
	client, _ := distributorFixture(t, 5)
	if err := client.Health(); err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 60_000)
	rng.Read(data)
	info, err := client.Upload("bob", "pw", "f.bin", data, privacy.Moderate, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks < 2 {
		t.Fatalf("chunks = %d", info.Chunks)
	}
	n, err := client.ChunkCount("bob", "pw", "f.bin")
	if err != nil || n != info.Chunks {
		t.Fatalf("ChunkCount = %d, %v", n, err)
	}
	got, err := client.GetFile("bob", "pw", "f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file round trip over HTTP mismatch")
	}
	chunk, err := client.GetChunk("bob", "pw", "f.bin", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chunk, data[:len(chunk)]) {
		t.Fatal("chunk content mismatch")
	}
}

func TestEndToEndErrorsSurviveWire(t *testing.T) {
	client, _ := distributorFixture(t, 4)
	_ = client.RegisterClient("bob")
	_ = client.AddPassword("bob", "pw", privacy.Low)
	_ = client.AddPassword("bob", "weak", privacy.Public)
	if _, err := client.Upload("bob", "pw", "f", []byte("x"), privacy.Low, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterClient("bob"); !errors.Is(err, core.ErrExists) {
		t.Fatalf("dup client: %v", err)
	}
	if _, err := client.Upload("bob", "pw", "f", []byte("y"), privacy.Low, UploadOptions{}); !errors.Is(err, core.ErrExists) {
		t.Fatalf("dup file: %v", err)
	}
	if _, err := client.GetFile("bob", "wrong", "f"); !errors.Is(err, core.ErrAuth) {
		t.Fatalf("bad password: %v", err)
	}
	if _, err := client.GetChunk("bob", "weak", "f", 0); !errors.Is(err, core.ErrAuth) {
		t.Fatalf("weak password: %v", err)
	}
	if _, err := client.GetFile("bob", "pw", "missing"); !errors.Is(err, core.ErrNoSuchFile) {
		t.Fatalf("missing file: %v", err)
	}
	if _, err := client.GetChunk("bob", "pw", "f", 99); !errors.Is(err, core.ErrNoSuchChunk) {
		t.Fatalf("bad serial: %v", err)
	}
	if _, err := client.GetSnapshot("bob", "pw", "f", 0); !errors.Is(err, core.ErrNoSnapshot) {
		t.Fatalf("no snapshot: %v", err)
	}
	if _, err := client.Upload("bob", "pw", "g", []byte("z"), privacy.Level(9), UploadOptions{}); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("bad level: %v", err)
	}
}

func TestEndToEndLifecycleOverHTTP(t *testing.T) {
	client, _ := distributorFixture(t, 5)
	_ = client.RegisterClient("bob")
	_ = client.AddPassword("bob", "pw", privacy.High)
	data := []byte("original chunk contents for the update test ........")
	if _, err := client.Upload("bob", "pw", "f", data, privacy.Low, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := client.UpdateChunk("bob", "pw", "f", 0, []byte("new state")); err != nil {
		t.Fatal(err)
	}
	got, err := client.GetChunk("bob", "pw", "f", 0)
	if err != nil || string(got) != "new state" {
		t.Fatalf("updated chunk = %q, %v", got, err)
	}
	snap, err := client.GetSnapshot("bob", "pw", "f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, data) {
		t.Fatal("snapshot over HTTP mismatch")
	}
	if err := client.RemoveFile("bob", "pw", "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.GetFile("bob", "pw", "f"); !errors.Is(err, core.ErrNoSuchFile) {
		t.Fatalf("get removed file: %v", err)
	}
}

// TestUpdateKeepsDecoysOverHTTP: Client.UpdateChunk carries no upload
// options, so the distributor must keep a defended chunk defended on its
// own — the blob on the provider stays longer than the plaintext, at the
// chunk's rate, and the chunk still reads back exactly.
func TestUpdateKeepsDecoysOverHTTP(t *testing.T) {
	client, mems := distributorFixture(t, 5)
	_ = client.RegisterClient("bob")
	_ = client.AddPassword("bob", "pw", privacy.High)
	blobLens := func() map[int]bool {
		lens := map[int]bool{}
		for _, m := range mems {
			for _, b := range m.Dump() {
				lens[len(b)] = true
			}
		}
		return lens
	}
	data := patterned(16 << 10) // one PL2 chunk; no parity, so it is the file's only blob
	opts := UploadOptions{MisleadFraction: 0.25, NoParity: true}
	if _, err := client.Upload("bob", "pw", "f", data, privacy.Moderate, opts); err != nil {
		t.Fatal(err)
	}
	if lens := blobLens(); len(lens) != 1 || !lens[len(data)+len(data)/4] {
		t.Fatalf("uploaded blobs have lengths %v for %d bytes of data at fraction 0.25", lens, len(data))
	}
	update := patterned(800)
	if err := client.UpdateChunk("bob", "pw", "f", 0, update); err != nil {
		t.Fatal(err)
	}
	if lens := blobLens(); lens[len(update)] || !lens[len(update)+len(update)/4] {
		t.Fatalf("after the update the fleet holds blobs of lengths %v for %d bytes of data: the chunk lost its decoys", lens, len(update))
	}
	if got, err := client.GetChunk("bob", "pw", "f", 0); err != nil || !bytes.Equal(got, update) {
		t.Fatalf("updated chunk reads back %d bytes, %v", len(got), err)
	}
}

func TestEndToEndRAIDRecoveryOverHTTP(t *testing.T) {
	client, mems := distributorFixture(t, 6)
	_ = client.RegisterClient("bob")
	_ = client.AddPassword("bob", "pw", privacy.High)
	rng := rand.New(rand.NewSource(10))
	data := make([]byte, 80_000)
	rng.Read(data)
	if _, err := client.Upload("bob", "pw", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Take one backing provider down directly (simulating a real outage,
	// not a control-plane call).
	mems[2].SetOutage(true)
	got, err := client.GetFile("bob", "pw", "f")
	if err != nil {
		t.Fatalf("retrieval with provider outage: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recovered file mismatch")
	}
}

func TestTablesOverHTTP(t *testing.T) {
	client, _ := distributorFixture(t, 4)
	_ = client.RegisterClient("bob")
	_ = client.AddPassword("bob", "pw", privacy.High)
	if _, err := client.Upload("bob", "pw", "f", make([]byte, 40_000), privacy.Moderate, UploadOptions{MisleadFraction: 0.1}); err != nil {
		t.Fatal(err)
	}
	prows, err := client.ProviderTable()
	if err != nil || len(prows) != 4 {
		t.Fatalf("provider table: %d rows, %v", len(prows), err)
	}
	crows, err := client.ClientTable()
	if err != nil || len(crows) != 1 || crows[0].Client != "bob" {
		t.Fatalf("client table: %+v, %v", crows, err)
	}
	chrows, err := client.ChunkTable()
	if err != nil || len(chrows) == 0 {
		t.Fatalf("chunk table: %d rows, %v", len(chrows), err)
	}
	stats, err := client.Stats()
	if err != nil || stats.Chunks != len(chrows) {
		t.Fatalf("stats: %+v, %v", stats, err)
	}
}

func TestGetRangeAndAdminOverHTTP(t *testing.T) {
	client, mems := distributorFixture(t, 6)
	_ = client.RegisterClient("bob")
	_ = client.AddPassword("bob", "pw", privacy.High)
	rng := rand.New(rand.NewSource(20))
	data := make([]byte, 90_000)
	rng.Read(data)
	if _, err := client.Upload("bob", "pw", "f", data, privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := client.GetRange("bob", "pw", "f", 40_000, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[40_000:42_000]) {
		t.Fatal("range over HTTP mismatch")
	}
	if _, err := client.GetRange("bob", "pw", "f", 89_999, 100); !errors.Is(err, core.ErrRange) {
		t.Fatalf("overflow range: %v", err)
	}
	// offset and length arrive unvalidated from the JSON body; a sum that
	// overflows int is a range error, not a panic in the handler.
	for _, body := range []string{
		fmt.Sprintf(`{"client":"bob","password":"pw","filename":"f","offset":10,"length":%d}`, math.MaxInt),
		fmt.Sprintf(`{"client":"bob","password":"pw","filename":"f","offset":%d,"length":1}`, math.MaxInt),
	} {
		resp, err := client.http.Post(client.urls[0]+routeGetRange.path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if code := resp.Header.Get("X-Error-Code"); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable || code != "range" {
			t.Fatalf("%s: status %d, X-Error-Code %q, want 416 and range", body, resp.StatusCode, code)
		}
	}
	if got, err := client.GetRange("bob", "pw", "f", 0, 16); err != nil || !bytes.Equal(got, data[:16]) {
		t.Fatalf("the server stopped serving after the overflowing ranges: %v", err)
	}

	// Corrupt a stored blob on a backing provider; scrub repairs it.
	victim := mems[0]
	keys := victim.Keys()
	if len(keys) == 0 {
		victim = mems[1]
		keys = victim.Keys()
	}
	blob, _ := victim.Get(keys[0])
	for i := range blob {
		blob[i] ^= 0xFF
	}
	_ = victim.Put(keys[0], blob)
	rep, err := client.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksChecked == 0 {
		t.Fatalf("scrub over HTTP: %+v", rep)
	}

	// Decommission provider 2 over the wire.
	drep, err := client.Decommission(2)
	if err != nil {
		t.Fatal(err)
	}
	if mems[2].Len() != 0 {
		t.Fatalf("provider 2 still holds %d keys after decommission (%+v)", mems[2].Len(), drep)
	}
	back, err := client.GetFile("bob", "pw", "f")
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("read after remote decommission: %v", err)
	}
	if _, err := client.Decommission(99); err == nil {
		t.Fatal("bad index accepted over HTTP")
	}
}

func TestReplicasOverHTTP(t *testing.T) {
	client, _ := distributorFixture(t, 6)
	_ = client.RegisterClient("bob")
	_ = client.AddPassword("bob", "pw", privacy.High)
	if _, err := client.Upload("bob", "pw", "f", make([]byte, 40_000), privacy.Moderate, UploadOptions{Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MirrorShards != stats.Chunks {
		t.Fatalf("mirrors over HTTP = %d, chunks = %d", stats.MirrorShards, stats.Chunks)
	}
}

func TestMetricsOverHTTP(t *testing.T) {
	client, _ := distributorFixture(t, 4)
	_ = client.RegisterClient("bob")
	_ = client.AddPassword("bob", "pw", privacy.High)
	if _, err := client.Upload("bob", "pw", "f", make([]byte, 30_000), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.GetFile("bob", "pw", "f"); err != nil {
		t.Fatal(err)
	}
	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Uploads != 1 || m.FileReads != 1 {
		t.Fatalf("metrics over HTTP: %+v", m)
	}
}
