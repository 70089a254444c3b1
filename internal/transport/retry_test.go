package transport

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// flakyTransport fails the first N round-trips per path at the network
// layer (no HTTP response), then passes through, recording attempts.
type flakyTransport struct {
	inner http.RoundTripper

	mu    sync.Mutex
	fails map[string]int
	calls map[string]int
}

func newFlakyTransport(inner http.RoundTripper) *flakyTransport {
	return &flakyTransport{inner: inner, fails: map[string]int{}, calls: map[string]int{}}
}

func (f *flakyTransport) failNext(path string, n int) {
	f.mu.Lock()
	f.fails[path] = n
	f.mu.Unlock()
}

func (f *flakyTransport) attempts(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[path]
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls[req.URL.Path]++
	n := f.fails[req.URL.Path]
	if n > 0 {
		f.fails[req.URL.Path] = n - 1
	}
	f.mu.Unlock()
	if n > 0 {
		return nil, fmt.Errorf("simulated connection reset")
	}
	return f.inner.RoundTrip(req)
}

// flakyDistributor stands up an in-process distributor behind an HTTP
// server whose client connection drops on demand.
func flakyDistributor(t *testing.T) (*Client, *flakyTransport, *[]time.Duration) {
	t.Helper()
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p, err := provider.New(provider.Info{
			Name: fmt.Sprintf("p%d", i), PL: privacy.High, CL: privacy.CostLevel(i % 4),
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := core.New(core.Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewDistributorServer(dist))
	t.Cleanup(srv.Close)
	flaky := newFlakyTransport(srv.Client().Transport)
	client := NewClient(srv.URL, &http.Client{Transport: flaky, Timeout: 10 * time.Second})
	var slept []time.Duration
	client.retry.sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := client.RegisterClient("ann"); err != nil {
		t.Fatal(err)
	}
	if err := client.AddPassword("ann", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Upload("ann", "pw", "f.txt", []byte("retry me please"), privacy.Low, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	return client, flaky, &slept
}

func TestIdempotentRequestRetriesNetworkErrors(t *testing.T) {
	client, flaky, slept := flakyDistributor(t)
	flaky.failNext("/v1/get_file", netRetries-1)
	got, err := client.GetFile("ann", "pw", "f.txt")
	if err != nil {
		t.Fatalf("GetFile should survive %d dropped connections: %v", netRetries-1, err)
	}
	if string(got) != "retry me please" {
		t.Fatalf("GetFile = %q", got)
	}
	if n := flaky.attempts("/v1/get_file"); n != netRetries {
		t.Fatalf("attempts = %d, want %d", n, netRetries)
	}
	if len(*slept) != netRetries-1 {
		t.Fatalf("backoff sleeps = %d, want %d", len(*slept), netRetries-1)
	}
	// Exponential shape: each delay ∈ [base·2ⁿ, base·2ⁿ+base).
	for n, d := range *slept {
		lo := netRetryBase << uint(n)
		if d < lo || d >= lo+netRetryBase {
			t.Fatalf("backoff[%d] = %v, want [%v, %v)", n, d, lo, lo+netRetryBase)
		}
	}
}

func TestRetryGivesUpAfterBudget(t *testing.T) {
	client, flaky, _ := flakyDistributor(t)
	flaky.failNext("/v1/get_file", netRetries+5)
	if _, err := client.GetFile("ann", "pw", "f.txt"); !isNetworkError(err) {
		t.Fatalf("exhausted retries should surface the network error, got %v", err)
	}
	if n := flaky.attempts("/v1/get_file"); n != netRetries {
		t.Fatalf("attempts = %d, want exactly %d", n, netRetries)
	}
}

func TestMutationsAreNotRetried(t *testing.T) {
	client, flaky, slept := flakyDistributor(t)
	before := map[string]int{}
	for _, path := range []string{"/v1/upload", "/v1/update_chunk", "/v1/remove_file"} {
		before[path] = flaky.attempts(path)
		flaky.failNext(path, 1)
	}
	if _, err := client.Upload("ann", "pw", "g.txt", []byte("x"), privacy.Low, UploadOptions{}); err == nil {
		t.Fatal("upload over a dead connection should fail")
	}
	if err := client.UpdateChunk("ann", "pw", "f.txt", 0, []byte("y")); err == nil {
		t.Fatal("update over a dead connection should fail")
	}
	if err := client.RemoveFile("ann", "pw", "f.txt"); err == nil {
		t.Fatal("remove over a dead connection should fail")
	}
	for _, path := range []string{"/v1/upload", "/v1/update_chunk", "/v1/remove_file"} {
		if n := flaky.attempts(path) - before[path]; n != 1 {
			t.Fatalf("%s attempts = %d, want 1 (mutations must not be replayed)", path, n)
		}
	}
	if len(*slept) != 0 {
		t.Fatalf("mutations slept %d times; retry loop should not engage", len(*slept))
	}
}

func TestServerErrorsAreNotRetried(t *testing.T) {
	client, flaky, slept := flakyDistributor(t)
	if _, err := client.GetFile("ann", "wrong-pw", "f.txt"); !errors.Is(err, core.ErrAuth) {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
	if n := flaky.attempts("/v1/get_file"); n != 1 {
		t.Fatalf("attempts = %d; a served error response must not be retried", n)
	}
	if len(*slept) != 0 {
		t.Fatalf("slept %d times on a non-network error", len(*slept))
	}
}

func TestRemoteProviderRetriesNetworkErrors(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "flk", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, flaky := hangUpProvider(t, mem)
	var slept []time.Duration
	remote.retry.sleep = func(d time.Duration) { slept = append(slept, d) }

	flaky.failNext("/v1/chunks/k", netRetries-1)
	if err := remote.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put should survive dropped connections: %v", err)
	}
	flaky.failNext("/v1/chunks/k", netRetries-1)
	got, err := remote.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	flaky.failNext("/v1/chunks/k", netRetries-1)
	if err := remote.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if want := 3 * (netRetries - 1); len(slept) != want {
		t.Fatalf("backoff sleeps = %d, want %d", len(slept), want)
	}
	// A served error (404 after delete) must not burn retry budget.
	before := flaky.attempts("/v1/chunks/k")
	if _, err := remote.Get("k"); !errors.Is(err, provider.ErrNotFound) {
		t.Fatalf("Get deleted = %v, want ErrNotFound", err)
	}
	if n := flaky.attempts("/v1/chunks/k"); n != before+1 {
		t.Fatalf("404 retried: %d extra attempts", n-before)
	}
}

func TestProviderHealthOverHTTP(t *testing.T) {
	client, _, _ := flakyDistributor(t)
	h, err := client.HealthReport()
	if err != nil {
		t.Fatal(err)
	}
	provs := h.Providers
	if len(provs) != 5 {
		t.Fatalf("providers = %d, want 5", len(provs))
	}
	for _, p := range provs {
		if p.State != "closed" {
			t.Fatalf("provider %q state = %q, want closed", p.Provider, p.State)
		}
		if p.Provider == "" {
			t.Fatal("provider name missing from health view")
		}
	}
	if err := client.Health(); err != nil {
		t.Fatalf("Health = %v", err)
	}
}
