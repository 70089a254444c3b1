// Command distributor runs the Cloud Data Distributor as an HTTP service.
// Providers are either remote (HTTP URLs from -providers) or an in-process
// simulated fleet (-local-providers), so the whole paper architecture can
// run as separate OS processes or as one.
//
// Usage:
//
//	distributor -addr :9000 -providers http://localhost:9001,http://localhost:9002,http://localhost:9003
//	distributor -addr :9000 -local-providers 5
//
// With -shards the process instead runs as a thin routing proxy over an
// existing fleet of distributors: it owns no providers and no metadata,
// only the consistent-hash routing decision:
//
//	distributor -addr :8999 -shards http://localhost:9000,http://localhost:9001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":9000", "listen address")
		providers = flag.String("providers", "", "comma-separated provider base URLs")
		localN    = flag.Int("local-providers", 0, "run N in-process simulated providers instead of remote ones")
		width     = flag.Int("stripe-width", 4, "max data shards per RAID stripe")
		raid6     = flag.Bool("raid6", false, "default to RAID-6 instead of RAID-5")
		secret    = flag.String("secret", "cloud-data-distributor", "virtual-id PRF secret")
		cacheB    = flag.Int64("cache-bytes", 0, "read-side chunk cache bound in bytes (0 disables)")
		hedge     = flag.Duration("hedge-after", 50*time.Millisecond, "max wait before hedging a read to the next replica/parity rung (0 disables)")
		streamW   = flag.Int("stream-window", 0, "stripes an upload or a streamed read may hold in flight (0 = default 4)")
		walDir    = flag.String("wal-dir", "", "write-ahead log directory for durable metadata (empty = in-memory)")
		walSync   = flag.String("wal-sync", "grouped", "WAL sync policy: always, grouped, off")
		snapEvery = flag.Int("snapshot-every", 0, "checkpoint cadence in committed records (0 = default 4096)")
		drainT    = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound for draining in-flight writes")
		shards    = flag.String("shards", "", "run as a shard-routing proxy over these distributor base URLs (no local providers)")
	)
	flag.Parse()

	if *shards != "" {
		runShardProxy(*addr, *shards, *drainT)
		return
	}

	policy, err := wal.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatalf("distributor: %v", err)
	}
	fleet, err := buildFleet(*providers, *localN)
	if err != nil {
		log.Fatalf("distributor: %v", err)
	}
	level := raid.RAID5
	if *raid6 {
		level = raid.RAID6
	}
	dist, err := core.New(core.Config{
		Fleet:         fleet,
		DefaultRaid:   level,
		StripeWidth:   *width,
		Secret:        []byte(*secret),
		CacheBytes:    *cacheB,
		HedgeAfter:    *hedge,
		StreamWindow:  *streamW,
		WALDir:        *walDir,
		WALSync:       policy,
		SnapshotEvery: *snapEvery,
	})
	if err != nil {
		log.Fatalf("distributor: %v", err)
	}
	if *walDir != "" {
		h := dist.Health().WAL
		fmt.Printf("durable metadata in %s (sync %s): replayed %d records at lsn %d\n",
			*walDir, h.Policy, h.Replayed, h.NextLSN)
	}
	fmt.Printf("cloud data distributor over %d providers (default %v) listening on %s\n",
		fleet.Len(), level, *addr)

	done := "clean shutdown: metadata was in memory only, no checkpoint to write"
	if *walDir != "" {
		done = "clean shutdown: final checkpoint written"
	}
	serve(transport.NewHTTPServer(*addr, transport.NewDistributorServer(dist)), *drainT, dist.Close, done)
}

// runShardProxy serves the single-distributor wire protocol while
// routing every data operation to the shard owning its file key.
func runShardProxy(addr, shardURLs string, drainT time.Duration) {
	c, err := transport.NewShardedClient(splitURLs(shardURLs), nil)
	if err != nil {
		log.Fatalf("distributor: %v", err)
	}
	fmt.Printf("shard-routing proxy over %d distributors listening on %s\n", c.Shards(), addr)
	for i, u := range c.URLs() {
		fmt.Printf("  shard %d: %s\n", i, u)
	}
	closeNothing := func(context.Context) error { return nil }
	serve(transport.NewHTTPServer(addr, transport.NewShardProxy(c)), drainT, closeNothing, "clean shutdown: proxy holds no state")
}

// serve runs srv until SIGTERM or SIGINT, then drains its requests
// within drainT. closeFn is the step after the drain: the distributor's
// Close, which checkpoints when it keeps a WAL; a proxy holds no state
// and closes nothing. done is the line printed once both succeeded,
// saying what they did.
func serve(srv *http.Server, drainT time.Duration, closeFn func(context.Context) error, done string) {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("distributor: %v", err)
	case sig := <-sigCh:
		fmt.Printf("received %v: draining (bound %v)\n", sig, drainT)
		ctx, cancel := context.WithTimeout(context.Background(), drainT)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("distributor: http shutdown: %v", err)
		}
		if err := closeFn(ctx); err != nil {
			log.Fatalf("distributor: close: %v", err)
		}
		fmt.Println(done)
	}
}

// splitURLs splits a comma-separated URL list, trimming spaces and
// skipping empty entries.
func splitURLs(list string) []string {
	var urls []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

func buildFleet(urls string, localN int) (*provider.Fleet, error) {
	fleet, err := provider.NewFleet()
	if err != nil {
		return nil, err
	}
	switch {
	case urls != "":
		for _, u := range splitURLs(urls) {
			rp, err := transport.DialProvider(u, nil)
			if err != nil {
				return nil, fmt.Errorf("dial %s: %w", u, err)
			}
			if err := fleet.Add(rp); err != nil {
				return nil, err
			}
			fmt.Printf("joined provider %q at %s (PL%d, CL%d)\n",
				rp.Info().Name, u, rp.Info().PL, rp.Info().CL)
		}
	case localN > 0:
		for i := 0; i < localN; i++ {
			p, err := provider.New(provider.Info{
				Name: fmt.Sprintf("local%02d", i),
				PL:   privacy.High,
				CL:   privacy.CostLevel(i % 4),
			}, provider.Options{})
			if err != nil {
				return nil, err
			}
			if err := fleet.Add(p); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("need -providers or -local-providers")
	}
	if fleet.Len() == 0 {
		return nil, fmt.Errorf("no providers configured")
	}
	return fleet, nil
}
