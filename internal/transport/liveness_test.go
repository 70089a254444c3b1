package transport

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// providerGate sits between a provider's HTTP server and its handler: it
// counts what arrives, by method and route, and can be told to accept
// every request and answer none — a hung process, not a refused
// connection.
type providerGate struct {
	inner   http.Handler
	stalled atomic.Bool
	release chan struct{} // closed at cleanup, so no handler outlives its server

	mu   sync.Mutex
	seen map[string]int
}

func newProviderGate(inner http.Handler) *providerGate {
	return &providerGate{inner: inner, release: make(chan struct{}), seen: map[string]int{}}
}

func (g *providerGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.Method + " " + r.URL.Path
	if strings.HasPrefix(r.URL.Path, "/v1/chunks/") {
		route = r.Method + " /v1/chunks/"
	}
	g.mu.Lock()
	g.seen[route]++
	g.mu.Unlock()
	if g.stalled.Load() {
		select {
		case <-r.Context().Done():
		case <-g.release:
		}
		return
	}
	g.inner.ServeHTTP(w, r)
}

// loopbackFleet is the deployment's real provider hop inside a test: n
// in-memory PL3 providers, each hooked and behind its own gated httptest
// server, and a distributor (account a/pw) over RemoteProviders dialled
// to them.
type loopbackFleet struct {
	dist    *core.Distributor
	mems    []*provider.MemProvider
	remotes []*RemoteProvider
	srvs    []*httptest.Server
	gates   []*providerGate
}

// newLoopbackFleet builds one. timeout is the provider clients' whole
// request timeout: what a put to a hung provider costs per attempt.
func newLoopbackFleet(tb testing.TB, n int, timeout time.Duration, cfg core.Config) *loopbackFleet {
	tb.Helper()
	f := &loopbackFleet{}
	fleet, err := provider.NewFleet()
	if err != nil {
		tb.Fatal(err)
	}
	client := &http.Client{Timeout: timeout}
	for i := 0; i < n; i++ {
		mem, err := provider.New(provider.Info{Name: fmt.Sprintf("p%d", i), PL: privacy.High, CL: 1}, provider.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		gate := newProviderGate(NewProviderServer(mem))
		srv := httptest.NewServer(gate)
		tb.Cleanup(srv.Close)
		tb.Cleanup(func() { close(gate.release) }) // runs before srv.Close, which waits for handlers
		remote, err := DialProvider(srv.URL, client)
		if err != nil {
			tb.Fatal(err)
		}
		if err := fleet.Add(remote); err != nil {
			tb.Fatal(err)
		}
		f.mems, f.remotes = append(f.mems, mem), append(f.remotes, remote)
		f.srvs, f.gates = append(f.srvs, srv), append(f.gates, gate)
	}
	cfg.Fleet = fleet
	if f.dist, err = core.New(cfg); err != nil {
		tb.Fatal(err)
	}
	if err := f.dist.RegisterClient("a"); err != nil {
		tb.Fatal(err)
	}
	if err := f.dist.AddPassword("a", "pw", privacy.High); err != nil {
		tb.Fatal(err)
	}
	return f
}

// requests sums, over every provider server, the requests seen on route
// since the last reset.
func (f *loopbackFleet) requests(route string) int {
	total := 0
	for _, g := range f.gates {
		g.mu.Lock()
		total += g.seen[route]
		g.mu.Unlock()
	}
	return total
}

func (f *loopbackFleet) resetRequests() {
	for _, g := range f.gates {
		g.mu.Lock()
		g.seen = map[string]int{}
		g.mu.Unlock()
	}
}

func patterned(n int) []byte {
	return bytes.Repeat([]byte("0123456789abcdef"), n/16)
}

// TestPutMakesNoHealthProbe pins the write path's provider traffic the
// way byteWorkHook pins its byte work: a write's requests are its shard
// puts (and what an update or remove must read back), never a liveness
// probe — placement answers "is it up" from memory.
func TestPutMakesNoHealthProbe(t *testing.T) {
	f := newLoopbackFleet(t, 6, 10*time.Second, core.Config{})
	const puts, probes = "PUT /v1/chunks/", "GET /v1/health"
	step := func(name string, wantPuts int, op func() error) {
		t.Helper()
		f.resetRequests()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := f.requests(probes); got != 0 {
			t.Errorf("%s: %d health probes reached the providers, want 0", name, got)
		}
		if got := f.requests(puts); wantPuts >= 0 && got != wantPuts {
			t.Errorf("%s: %d chunk puts, want %d", name, got, wantPuts)
		}
	}
	step("4 KiB PL2 upload", 2, func() error { // one chunk and its parity
		_, err := f.dist.Upload("a", "pw", "small", patterned(4<<10), privacy.Moderate, core.UploadOptions{})
		return err
	})
	step("4 MiB PL3 RAID-6 defended upload", 768, func() error { // 512 chunks in 128 stripes of 4+2
		_, err := f.dist.Upload("a", "pw", "defended", patterned(4<<20), privacy.High,
			core.UploadOptions{Assurance: raid.RAID6, MisleadFraction: 0.25})
		return err
	})
	step("streamed upload", -1, func() error {
		_, err := f.dist.UploadStream("a", "pw", "streamed", bytes.NewReader(patterned(1<<20)), privacy.Public, core.UploadOptions{})
		return err
	})
	step("update chunk", -1, func() error {
		return f.dist.UpdateChunk("a", "pw", "defended", 3, patterned(8<<10), core.UploadOptions{MisleadFraction: 0.25})
	})
	step("remove chunk", -1, func() error {
		return f.dist.RemoveChunk("a", "pw", "defended", 5)
	})

	f.resetRequests()
	for i := 0; i < 1000; i++ {
		if f.remotes[0].Down() {
			t.Fatal("healthy provider reports down")
		}
	}
	f.gates[0].mu.Lock()
	defer f.gates[0].mu.Unlock()
	if got := f.gates[0].seen; len(got) != 0 {
		t.Errorf("1000 Down() calls on a healthy provider reached its server: %v", got)
	}
}

// TestStalledProviderDoesNotHoldTableLock: a provider that accepts
// requests and never answers used to be discovered by a health probe
// made under the distributor's table lock — one probeTimeout of
// exclusive hold per stripe, every read queued behind it. It must cost
// the upload a failover and the readers nothing.
func TestStalledProviderDoesNotHoldTableLock(t *testing.T) {
	// The provider clients give up after 700 ms, which is also all the
	// old probe could hold the lock for: more than the reads are allowed.
	// The breaker opens on the first failed put so the hung provider costs
	// the upload one round of timeouts, not two.
	f := newLoopbackFleet(t, 6, 700*time.Millisecond, core.Config{Health: health.Config{FailureThreshold: 1}})
	want := patterned(4 << 10)
	if _, err := f.dist.Upload("a", "pw", "bystander", want, privacy.Moderate, core.UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	// Hang a provider that holds nothing of the bystander file, so the
	// reads below wait for the table lock or for nothing.
	hung := -1
	for i, mem := range f.mems {
		if mem.Len() == 0 {
			hung = i
			break
		}
	}
	if hung < 0 {
		t.Fatal("a two-shard file landed on all six providers")
	}
	f.gates[hung].stalled.Store(true)

	done := make(chan struct{})
	slowest := make(chan time.Duration, 1)
	go func() {
		var worst time.Duration
		defer func() { slowest <- worst }()
		for {
			select {
			case <-done:
				return
			default:
			}
			start := time.Now()
			got, err := f.dist.GetFile("a", "pw", "bystander")
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("GetFile beside the upload: %d bytes, %v", len(got), err)
				return
			}
			worst = max(worst, time.Since(start))
		}
	}()

	// 1 MiB at PL3 is 32 stripes: 32 placements with the lock held.
	_, err := f.dist.Upload("a", "pw", "big", patterned(1<<20), privacy.High, core.UploadOptions{})
	close(done)
	if err != nil {
		t.Fatalf("upload with one provider hung: %v", err)
	}
	if worst := <-slowest; worst > probeTimeout/2 {
		t.Errorf("a read beside the upload took %v: the table lock was held across provider I/O", worst)
	}
	if m := f.dist.Metrics(); m.WriteFailovers == 0 {
		t.Error("the hung provider took no shard, so the upload proved nothing: want WriteFailovers > 0")
	}
	if got, err := f.dist.GetFile("a", "pw", "big"); err != nil || !bytes.Equal(got, patterned(1<<20)) {
		t.Fatalf("reading the upload back: %d bytes, %v", len(got), err)
	}
}

// TestKilledProviderIsFailedOverThenSkipped: a provider that dies without
// a word is met by the first put that reaches it, not by a probe: that
// upload fails over, and the next one places nothing on it.
func TestKilledProviderIsFailedOverThenSkipped(t *testing.T) {
	f := newLoopbackFleet(t, 6, 10*time.Second, core.Config{})
	const dead = 2
	f.srvs[dead].Close()
	if f.remotes[dead].Down() {
		t.Fatal("nothing has been sent to the killed provider yet, but it already reads down")
	}
	data := patterned(256 << 10) // PL2: 16 chunks in 4 stripes of 4+1, so five of six providers each
	if _, err := f.dist.Upload("a", "pw", "first", data, privacy.Moderate, core.UploadOptions{}); err != nil {
		t.Fatalf("upload over a killed provider: %v", err)
	}
	if m := f.dist.Metrics(); m.WriteFailovers == 0 {
		t.Fatal("WriteFailovers = 0: nothing was placed on the killed provider")
	}
	if !f.remotes[dead].Down() {
		t.Fatal("a put the provider never answered left it up")
	}
	health := f.dist.Health().Providers[dead]
	if !health.Down {
		t.Errorf("Health() of the killed provider = %+v, want Down", health)
	}
	before := f.dist.Metrics().WriteFailovers
	if _, err := f.dist.Upload("a", "pw", "second", data, privacy.Moderate, core.UploadOptions{}); err != nil {
		t.Fatalf("second upload: %v", err)
	}
	if after := f.dist.Metrics().WriteFailovers; after != before {
		t.Errorf("second upload failed over %d shards: the killed provider was placed on again", after-before)
	}
	if n := f.dist.Stats().PerProvider[dead]; n != 0 {
		t.Errorf("%d shards committed on the killed provider, want 0", n)
	}
	for _, name := range []string{"first", "second"} {
		if got, err := f.dist.GetFile("a", "pw", name); err != nil || !bytes.Equal(got, data) {
			t.Errorf("reading %s back: %d bytes, %v", name, len(got), err)
		}
	}
}
