// Package localfleet stands up the real networked system on loopback:
// provider HTTP servers, distributor HTTP servers over RemoteProvider
// clients, real sockets, the same wire path as a multi-host deployment.
// It is the shared fixture behind cmd/cloudbench's load harness and
// internal/minecheck's adversary-in-the-loop campaigns — anything that
// wants to measure or attack the system as deployed rather than an
// in-process shortcut.
package localfleet

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/transport"
)

// Config describes the loopback deployment to stand up.
type Config struct {
	// Shards is the number of independent distributors (>= 1). Each
	// shard owns its provider fleet outright — shared-nothing, so
	// throughput scales with shard count exactly as across machines.
	Shards int
	// Providers is the fleet size per shard.
	Providers int
	// ProvLatency, when > 0, makes every provider a single-server queue
	// with this service time per HTTP request (transport.QueueRequests):
	// one request in service at a time, a multi-get one request. Zero
	// keeps providers instant for deterministic harnesses.
	ProvLatency time.Duration
	// Hook, when non-nil, is handed each in-memory provider before it is
	// served over HTTP — where minecheck installs its provider-side
	// spies (the malicious-insider vantage point) on the provider's
	// hooks.
	Hook func(p *provider.MemProvider)
	// Distributor tunes each shard's core.Config after the fleet is
	// attached (cache, hedging, stream window, parallelism, …). The
	// passed config already carries the fleet; mutate knobs in place.
	Distributor func(shard int, cfg *core.Config)
}

// Cluster is a running loopback deployment.
type Cluster struct {
	// DistURLs are the distributor base URLs in shard order.
	DistURLs []string
	// ProviderURLs[s] are shard s's provider base URLs in fleet order.
	ProviderURLs [][]string
	servers      []*http.Server
}

// Close shuts every HTTP server down.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		_ = s.Close()
	}
}

// Start builds and serves the deployment described by cfg.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("localfleet: shards %d < 1", cfg.Shards)
	}
	if cfg.Providers < 1 {
		return nil, fmt.Errorf("localfleet: providers %d < 1", cfg.Providers)
	}
	c := &Cluster{
		DistURLs:     make([]string, cfg.Shards),
		ProviderURLs: make([][]string, cfg.Shards),
	}
	// Each provider call's deadline; the connections are each remote
	// provider's own pool.
	providerHTTP := &http.Client{Timeout: 30 * time.Second}
	for s := 0; s < cfg.Shards; s++ {
		fleet, err := provider.NewFleet()
		if err != nil {
			c.Close()
			return nil, err
		}
		for i := 0; i < cfg.Providers; i++ {
			// Uniform cost level: placement prefers strictly cheaper
			// providers and only load-balances within a cost tier, so a
			// mixed-cost fleet would concentrate all load on its
			// cheapest member and idle the rest. Equal CL turns the
			// tie-break into least-load placement across the whole
			// fleet — the symmetric queueing bank load measurements
			// assume.
			mem, err := provider.New(provider.Info{
				Name: fmt.Sprintf("s%02dp%02d", s, i),
				PL:   privacy.High,
				CL:   1,
			}, provider.Options{})
			if err != nil {
				c.Close()
				return nil, err
			}
			if cfg.Hook != nil {
				cfg.Hook(mem)
			}
			url, srv, err := serveLoopback(transport.QueueRequests(transport.NewProviderServer(mem), cfg.ProvLatency))
			if err != nil {
				c.Close()
				return nil, err
			}
			c.servers = append(c.servers, srv)
			c.ProviderURLs[s] = append(c.ProviderURLs[s], url)
			remote, err := transport.DialProvider(url, providerHTTP)
			if err != nil {
				c.Close()
				return nil, err
			}
			if err := fleet.Add(remote); err != nil {
				c.Close()
				return nil, err
			}
		}

		dcfg := core.Config{Fleet: fleet}
		if cfg.Distributor != nil {
			cfg.Distributor(s, &dcfg)
		}
		dist, err := core.New(dcfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		url, srv, err := serveLoopback(transport.NewDistributorServer(dist))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.DistURLs[s] = url
	}
	return c, nil
}

// serveLoopback binds a handler to an ephemeral loopback port.
func serveLoopback(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), srv, nil
}
