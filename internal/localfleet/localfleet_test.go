package localfleet

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/provider"
	"repro/internal/transport"
)

// TestProvLatencyChargesARequestNotAKey pins where ProvLatency charges:
// once per HTTP request, so a 32-key multi-get to one provider costs one
// service time, not 32 of them.
func TestProvLatencyChargesARequestNotAKey(t *testing.T) {
	const delay = 5 * time.Millisecond
	var mem *provider.MemProvider
	c, err := Start(Config{Shards: 1, Providers: 1, ProvLatency: delay, Hook: func(p *provider.MemProvider) { mem = p }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		if err := mem.Put(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	remote, err := transport.DialProvider(c.ProviderURLs[0][0], &http.Client{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	blobs, errs := remote.GetMany(keys)
	took := time.Since(start)
	for i, key := range keys {
		if errs[i] != nil || string(blobs[i]) != key {
			t.Fatalf("key %s: %q, %v", key, blobs[i], errs[i])
		}
	}
	if took >= 4*delay {
		t.Fatalf("a 32-key multi-get took %v at a %v service time, want under %v", took, delay, 4*delay)
	}
}
