// Command provider runs one simulated cloud storage provider as an HTTP
// service: the S3-like entity of the paper's architecture, storing chunks
// by virtual id.
//
// Usage:
//
//	provider -addr :9001 -name Titans -pl 3 -cl 2
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/transport"
)

func main() {
	var (
		addr      = flag.String("addr", ":9001", "listen address")
		name      = flag.String("name", "provider1", "provider name")
		pl        = flag.Int("pl", 3, "privacy (reputation) level 0-3")
		cl        = flag.Int("cl", 1, "cost level 0-3")
		dataDir   = flag.String("data-dir", "", "persist blobs under this directory (empty = in-memory)")
		failRate  = flag.Float64("fail-rate", 0, "injected transient failure probability [0,1)")
		latencyMs = flag.Int("latency-ms", 0, "simulated network round trip per request in milliseconds")
	)
	flag.Parse()

	info := provider.Info{
		Name: *name,
		PL:   privacy.Level(*pl),
		CL:   privacy.CostLevel(*cl),
	}
	var p provider.Provider
	var err error
	if *dataDir != "" {
		p, err = provider.NewDiskProvider(info, *dataDir)
	} else {
		p, err = provider.New(info, provider.Options{FailureRate: *failRate})
	}
	if err != nil {
		log.Fatalf("provider: %v", err)
	}
	storage := "in-memory"
	if *dataDir != "" {
		storage = "disk:" + *dataDir
	}
	fmt.Printf("cloud provider %q (PL%d, CL%d, %s) listening on %s\n", *name, *pl, *cl, storage, *addr)
	h := transport.DelayRequests(transport.NewProviderServer(p), time.Duration(*latencyMs)*time.Millisecond)
	log.Fatal(transport.NewHTTPServer(*addr, h).ListenAndServe())
}
