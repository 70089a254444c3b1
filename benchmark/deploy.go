package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The deployment is cmd/distributor's default, the same for every
// workload, and printed with every report.
const (
	numProviders = 6
	stripeWidth  = 4
	hedgeAfter   = 50 * time.Millisecond
	cacheBytes   = 0
	streamWindow = 4
	walPolicy    = wal.SyncGrouped
)

type deploymentInfo struct {
	Providers    int    `json:"providers"`
	ProviderPL   int    `json:"provider_pl"`
	ProviderCL   int    `json:"provider_cl"`
	DefaultRaid  string `json:"default_raid"`
	StripeWidth  int    `json:"stripe_width"`
	HedgeAfterMs int    `json:"hedge_after_ms"`
	CacheBytes   int64  `json:"cache_bytes"`
	StreamWindow int    `json:"stream_window"`
	WAL          string `json:"wal"`
	Transport    string `json:"transport"`
}

func describeDeployment() deploymentInfo {
	return deploymentInfo{
		Providers: numProviders, ProviderPL: int(privacy.High), ProviderCL: 1,
		DefaultRaid: raid.RAID5.String(), StripeWidth: stripeWidth,
		HedgeAfterMs: int(hedgeAfter / time.Millisecond), CacheBytes: cacheBytes,
		StreamWindow: streamWindow, WAL: "on, sync " + walPolicy.String() + ", temp dir",
		Transport: "loopback HTTP, one process",
	}
}

// deployment is the real system on loopback: provider HTTP servers, a
// distributor over RemoteProvider clients with its WAL in a temp
// directory, a distributor HTTP server, and a client.
type deployment struct {
	mems    []*provider.MemProvider
	dist    *core.Distributor
	client  *transport.Client
	servers []*http.Server
	pools   []*http.Transport
	walDir  string
}

// boot stands the deployment up. With a recorder, every provider is
// wrapped twice — under its server (service time) and over its remote
// client (round trip) — so the hop can be timed from outside.
func boot(dir string, seed int64, rec *recorder) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(dir, "wal-")
	if err != nil {
		return nil, err
	}
	d := &deployment{walDir: walDir}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	provPool := transport.NewPooledTransport()
	d.pools = append(d.pools, provPool)
	provHTTP := &http.Client{Timeout: 30 * time.Second, Transport: provPool}
	fleet, err := provider.NewFleet()
	if err != nil {
		return nil, err
	}
	for i := 0; i < numProviders; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("prov%02d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			return nil, err
		}
		d.mems = append(d.mems, mem)
		var served provider.Provider = mem
		if rec != nil {
			served = &timedProvider{Provider: mem, rec: rec, layer: layerService}
		}
		url, err := d.serve(transport.NewProviderServer(served))
		if err != nil {
			return nil, err
		}
		remote, err := transport.DialProvider(url, provHTTP)
		if err != nil {
			return nil, err
		}
		var member provider.Provider = remote
		if rec != nil {
			member = &timedProvider{Provider: remote, rec: rec, layer: layerRTT}
		}
		if err := fleet.Add(member); err != nil {
			return nil, err
		}
	}

	d.dist, err = core.New(core.Config{
		Fleet:        fleet,
		DefaultRaid:  raid.RAID5,
		StripeWidth:  stripeWidth,
		HedgeAfter:   hedgeAfter,
		CacheBytes:   cacheBytes,
		StreamWindow: streamWindow,
		MisleadSeed:  seed,
		WALDir:       walDir,
		WALSync:      walPolicy,
	})
	if err != nil {
		return nil, err
	}
	url, err := d.serve(transport.NewDistributorServer(d.dist))
	if err != nil {
		return nil, err
	}
	clientPool := transport.NewPooledTransport()
	d.pools = append(d.pools, clientPool)
	d.client = transport.NewClient(url, &http.Client{Timeout: 2 * time.Minute, Transport: clientPool})
	if err := d.client.Health(); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := transport.NewHTTPServer("", h)
	d.servers = append(d.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// storedBytes sums what the providers hold right now.
func (d *deployment) storedBytes() int64 {
	var n int64
	for _, m := range d.mems {
		n += m.Usage().BytesStored
	}
	return n
}

// close tears the deployment down front to back: client connections,
// the distributor's server, the distributor (final checkpoint), then the
// providers it was talking to.
func (d *deployment) close() {
	for _, p := range d.pools {
		p.CloseIdleConnections()
	}
	closeDist := func() {
		if d.dist != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = d.dist.Close(ctx)
			cancel()
			d.dist = nil
		}
	}
	for i := len(d.servers) - 1; i >= 0; i-- {
		_ = d.servers[i].Close()
		if i == numProviders {
			closeDist()
		}
	}
	closeDist()
	_ = os.RemoveAll(d.walDir)
}
