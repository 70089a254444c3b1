package transport

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// gatedShard serves one distributor behind a switchable 503 gate — a
// shard that is "down" (every request refused) until the gate opens,
// without tearing the listener down, so the sharded Client's URL keeps
// pointing at the same place across the outage.
type gatedShard struct {
	down atomic.Bool
	next http.Handler
}

func (g *gatedShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() {
		http.Error(w, "shard down for maintenance", http.StatusServiceUnavailable)
		return
	}
	g.next.ServeHTTP(w, r)
}

// crossShardFixture is a 2-shard Client where shard 1 sits behind a
// gate the test can toggle.
func crossShardFixture(t *testing.T) (*Client, *gatedShard) {
	t.Helper()
	urls := make([]string, 2)
	var gate *gatedShard
	for s := 0; s < 2; s++ {
		fleet, err := provider.NewFleet()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			mem, err := provider.New(provider.Info{
				Name: fmt.Sprintf("s%dp%d", s, i), PL: privacy.High, CL: 1,
			}, provider.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := fleet.Add(mem); err != nil {
				t.Fatal(err)
			}
		}
		dist, err := core.New(core.Config{Fleet: fleet, Secret: []byte{byte(s + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = NewDistributorServer(dist)
		if s == 1 {
			gate = &gatedShard{next: h}
			h = gate
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[s] = srv.URL
	}
	sys, err := NewShardedClient(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, gate
}

// TestSystemRegisterReportsFailingShardAndRepairsIdempotently pins the
// cross-shard registration contract (ROADMAP's "cross-shard operations"
// gap, as a test instead of folklore):
//
//  1. when the account fan-out partially fails, the error names exactly
//     the shard that missed the mutation (index and URL), and
//  2. re-issuing the same call once the shard is back heals the
//     partial state — shards that already registered the client or
//     password acknowledge idempotently instead of failing the repair
//     with "already exists".
func TestSystemRegisterReportsFailingShardAndRepairsIdempotently(t *testing.T) {
	sys, gate := crossShardFixture(t)
	gate.down.Store(true)

	err := sys.RegisterClient("ann")
	if err == nil {
		t.Fatal("RegisterClient with shard 1 down: want error, got nil")
	}
	if !strings.Contains(err.Error(), "shard 1 (") {
		t.Fatalf("fan-out error does not name the failing shard: %v", err)
	}
	if strings.Contains(err.Error(), "shard 0 (") {
		t.Fatalf("fan-out error blames the healthy shard too: %v", err)
	}

	// The password fan-out hits the same wall and names the same shard.
	if err := sys.AddPassword("ann", "pw", privacy.High); err == nil ||
		!strings.Contains(err.Error(), "shard 1 (") {
		t.Fatalf("AddPassword with shard 1 down: want shard-1 error, got %v", err)
	}

	// Shard 1 recovers; the repair is simply re-issuing the calls.
	// Shard 0 already holds the account and password — the re-issue
	// must treat that as success, not ErrExists.
	gate.down.Store(false)
	if err := sys.RegisterClient("ann"); err != nil {
		t.Fatalf("re-issued RegisterClient after recovery: %v", err)
	}
	if err := sys.AddPassword("ann", "pw", privacy.High); err != nil {
		t.Fatalf("re-issued AddPassword after recovery: %v", err)
	}

	// The healed namespace serves uploads wherever they hash. The ring is
	// keyed by the servers' random ports, so a fixed list of names can
	// all land on one shard: pick names until every shard owns one, then
	// upload them, so the recovered shard is always exercised.
	var names []string
	owned := map[int]bool{}
	for i := 0; len(owned) < sys.Shards(); i++ {
		if i == 256 {
			t.Fatalf("256 names cover only shards %v of %d", owned, sys.Shards())
		}
		name := fmt.Sprintf("file-%d.txt", i)
		owned[sys.Locate("ann", name).Shard] = true
		names = append(names, name)
	}
	for _, name := range names {
		if _, err := sys.Upload("ann", "pw", name, []byte("payload"), privacy.High, UploadOptions{}); err != nil {
			t.Fatalf("upload %s after repair: %v", name, err)
		}
	}

	// A genuinely duplicate password re-add remains idempotent too —
	// the goal state ⟨password, PL⟩ is present on every shard.
	if err := sys.AddPassword("ann", "pw", privacy.High); err != nil {
		t.Fatalf("duplicate AddPassword: %v", err)
	}
}
