package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/localfleet"
)

// startLocalShards stands up d independent distributors, each over its
// own fleet of n provider HTTP servers on loopback — real sockets, the
// same wire path as a multi-host deployment, each distributor reaching
// its providers through RemoteProvider clients — and returns the
// distributors' base URLs plus a shutdown function. It is the fixture
// the minecheck adversary harness shares (internal/localfleet).
func startLocalShards(d, n int, provLatency time.Duration, cacheBytes int64, hedgeAfter time.Duration, streamWindow int) ([]string, func(), error) {
	cluster, err := localfleet.Start(localfleet.Config{
		Shards:      d,
		Providers:   n,
		ProvLatency: provLatency,
		Distributor: func(_ int, cfg *core.Config) {
			cfg.CacheBytes = cacheBytes
			cfg.HedgeAfter = hedgeAfter
			cfg.StreamWindow = streamWindow
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return cluster.DistURLs, cluster.Close, nil
}
