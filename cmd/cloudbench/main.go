// Command cloudbench is a warp-class load generator for the privcloud
// distributor: it drives a real networked distributor+provider fleet
// with a mixed put/get/range/update/remove workload (plus sput/sget,
// the windowed streaming upload/download pair) — configurable op
// ratios, worker concurrency, object-size distribution, multi-tenant
// client/key spaces — for a fixed duration with warmup exclusion, and
// reports p50/p90/p99/p99.9 latency per op plus a throughput timeline
// as JSON (internal/loadreport) that cmd/benchjson merges into the
// BENCH_N.json trajectory.
//
// Usage:
//
//	cloudbench -local-providers 6 -workers 16 -duration 30s -out load.json
//	cloudbench -url http://localhost:9000 -mix put=10,get=70,range=20
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/loadreport"
	"repro/internal/privacy"
	"repro/internal/transport"
)

type config struct {
	url         string
	localN      int
	dists       int
	provLatency time.Duration
	cacheBytes  int64
	hedgeAfter  time.Duration
	streamW     int
	workers     int
	duration    time.Duration
	warmup      time.Duration
	mix         string
	sizes       string
	tenants     int
	keys        int
	pl          int
	seed        int64
	interval    time.Duration
	out         string
	strict      bool

	summary io.Writer // human digest sink; nil = discard
}

// errSyntax marks a command-line syntax error, which the FlagSet has
// already printed together with the usage.
var errSyntax = errors.New("command-line syntax")

func parseConfig(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("cloudbench", flag.ContinueOnError)
	fs.StringVar(&cfg.url, "url", "", "distributor base URL, or comma-separated shard URLs (empty = start an in-process fleet)")
	fs.IntVar(&cfg.localN, "local-providers", 6, "provider count per distributor for the in-process fleet")
	fs.IntVar(&cfg.dists, "distributors", 1, "in-process distributor (shard) count; >1 drives a consistent-hash sharded namespace")
	fs.DurationVar(&cfg.provLatency, "provider-latency", 0, "service time per request of each in-process provider, one request in service at a time")
	fs.Int64Var(&cfg.cacheBytes, "cache-bytes", 0, "in-process distributor chunk-cache bound (0 disables)")
	fs.DurationVar(&cfg.hedgeAfter, "hedge-after", 50*time.Millisecond, "in-process distributor hedge delay (0 disables)")
	fs.IntVar(&cfg.streamW, "stream-window", 0, "in-process distributor stream window in stripes, up and down (0 = default 4)")
	fs.IntVar(&cfg.workers, "workers", 16, "concurrent load workers")
	fs.DurationVar(&cfg.duration, "duration", 30*time.Second, "total run length, warmup included")
	fs.DurationVar(&cfg.warmup, "warmup", 5*time.Second, "initial window excluded from latency stats")
	fs.StringVar(&cfg.mix, "mix", "put=10,get=60,range=15,update=10,remove=5", "op weights")
	fs.StringVar(&cfg.sizes, "sizes", "4KiB=60,64KiB=30,256KiB=10", "object-size weights (B/KiB/MiB/GiB)")
	fs.IntVar(&cfg.tenants, "tenants", 4, "client accounts sharing the fleet")
	fs.IntVar(&cfg.keys, "keys", 32, "preloaded objects per tenant")
	fs.IntVar(&cfg.pl, "pl", int(privacy.Moderate), "privacy level of benchmark objects")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	fs.DurationVar(&cfg.interval, "interval", time.Second, "throughput timeline resolution")
	fs.StringVar(&cfg.out, "out", "-", "JSON report path ('-' = stdout)")
	fs.BoolVar(&cfg.strict, "strict", false, "exit nonzero if any op fails")
	if err := fs.Parse(args); err != nil {
		return cfg, fmt.Errorf("%w: %w", errSyntax, err)
	}
	switch {
	case cfg.workers < 1 || cfg.tenants < 1 || cfg.keys < 1:
		return cfg, fmt.Errorf("workers, tenants and keys must be >= 1")
	case cfg.warmup >= cfg.duration:
		return cfg, fmt.Errorf("warmup %v must be shorter than duration %v", cfg.warmup, cfg.duration)
	case cfg.interval <= 0:
		return cfg, fmt.Errorf("interval must be positive")
	case !privacy.Level(cfg.pl).Valid():
		return cfg, fmt.Errorf("pl %d out of range", cfg.pl)
	case cfg.url == "" && cfg.localN < 1:
		return cfg, fmt.Errorf("need -url or -local-providers >= 1")
	case cfg.dists < 1:
		return cfg, fmt.Errorf("distributors must be >= 1")
	case cfg.url != "" && cfg.dists > 1:
		return cfg, fmt.Errorf("-distributors shapes the in-process fleet; pass comma-separated shard URLs in -url instead")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		if !errors.Is(err, errSyntax) {
			fmt.Fprintln(os.Stderr, "cloudbench:", err)
		}
		os.Exit(2)
	}
	cfg.summary = os.Stderr
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudbench:", err)
		os.Exit(1)
	}
	if err := writeReport(rep, cfg.out); err != nil {
		fmt.Fprintln(os.Stderr, "cloudbench:", err)
		os.Exit(1)
	}
	if cfg.strict && rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "cloudbench: strict mode: %d op errors\n", rep.Errors)
		os.Exit(1)
	}
}

// run executes one full benchmark: fleet (if local), preload, timed
// mixed load, report assembly.
func run(cfg config) (*loadreport.Report, error) {
	if cfg.dists < 1 {
		cfg.dists = 1 // zero value (hand-built configs) means unsharded
	}
	mix, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	sizes, err := parseSizes(cfg.sizes)
	if err != nil {
		return nil, err
	}

	// The driver http.Client shares one pooled transport across every
	// shard, sized so fan-out beyond 2 conns/host never re-dials.
	hc := &http.Client{Timeout: 2 * time.Minute, Transport: transport.NewPooledTransport()}

	// Every deployment, one distributor or many, is driven through the
	// sharded client: a file's operations go to the distributor owning
	// it, and account set-up repeats idempotently on each.
	var (
		urls   []string
		target string
	)
	if cfg.url == "" {
		var shutdown func()
		urls, shutdown, err = startLocalShards(cfg.dists, cfg.localN, cfg.provLatency, cfg.cacheBytes, cfg.hedgeAfter, cfg.streamW)
		if err != nil {
			return nil, fmt.Errorf("starting fleet: %w", err)
		}
		defer shutdown()
		target = fmt.Sprintf("in-process fleet (%d providers) at %s", cfg.localN, urls[0])
		if cfg.dists > 1 {
			target = fmt.Sprintf("in-process sharded fleet (%d distributors × %d providers)", cfg.dists, cfg.localN)
		}
	} else {
		for _, u := range strings.Split(cfg.url, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		cfg.dists = len(urls)
		target = cfg.url
		if len(urls) > 1 {
			target = fmt.Sprintf("sharded deployment (%d distributors)", len(urls))
		}
	}
	client, err := transport.NewShardedClient(urls, hc)
	if err != nil {
		return nil, err
	}
	if err := client.Health(); err != nil {
		return nil, fmt.Errorf("distributor unreachable: %w", err)
	}

	tenants := make([]*tenant, cfg.tenants)
	for i := range tenants {
		tenants[i] = &tenant{
			name:     fmt.Sprintf("tenant%02d", i),
			password: fmt.Sprintf("pw-%02d", i),
			floor:    max(1, cfg.keys/2),
		}
	}
	if err := preload(cfg, client, tenants, sizes); err != nil {
		return nil, err
	}

	pl := privacy.Level(cfg.pl)
	workers := make([]*worker, cfg.workers)
	for i := range workers {
		workers[i] = newWorker(cfg.seed+int64(i)*7919, client, tenants, mix, sizes, pl)
	}

	start := time.Now()
	tl := newTimeline(start, cfg.duration, cfg.interval)
	deadline := start.Add(cfg.duration)
	warmEnd := start.Add(cfg.warmup)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop(deadline, warmEnd, tl)
		}(w)
	}
	wg.Wait()

	rep := buildReport(cfg, target, workers, tl, cfg.duration-cfg.warmup)
	if cfg.summary != nil {
		printSummary(cfg.summary, rep, workers)
	}
	return rep, nil
}

// preload registers the tenants and uploads each namespace's initial
// objects in parallel; any failure aborts the run before the clock
// starts.
func preload(cfg config, client *transport.Client, tenants []*tenant, sizes sizeDist) error {
	for _, tn := range tenants {
		if err := client.RegisterClient(tn.name); err != nil {
			return fmt.Errorf("register %s: %w", tn.name, err)
		}
		if err := client.AddPassword(tn.name, tn.password, privacy.High); err != nil {
			return fmt.Errorf("password %s: %w", tn.name, err)
		}
	}
	pl := privacy.Level(cfg.pl)
	jobCh := make(chan *tenant)
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed ^ int64(0x9e3779b9*uint32(id+1))))
			for tn := range jobCh {
				obj := tn.fresh(sizes.pick(rng))
				data := make([]byte, obj.size)
				rng.Read(data)
				if _, err := client.Upload(tn.name, tn.password, obj.name, data, pl, transport.UploadOptions{}); err != nil {
					select {
					case errCh <- fmt.Errorf("preload %s/%s: %w", tn.name, obj.name, err):
					default:
					}
					continue
				}
				tn.release(obj)
			}
		}(i)
	}
	for _, tn := range tenants {
		for k := 0; k < cfg.keys; k++ {
			jobCh <- tn
		}
	}
	close(jobCh)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}
