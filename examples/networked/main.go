// Networked runs the whole architecture as actual HTTP services on
// loopback — providers, distributor, and a client — mirroring the paper's
// prototype of PCs acting as Cloud Providers and a separate PC as the
// Cloud Data Distributor.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/transport"
)

func main() {
	// Five provider processes (httptest servers stand in for separate
	// machines; cmd/provider runs the same handler standalone).
	fleet, err := provider.NewFleet()
	if err != nil {
		log.Fatal(err)
	}
	var mems []*provider.MemProvider
	for i := 0; i < 5; i++ {
		mem := provider.MustNew(provider.Info{
			Name: fmt.Sprintf("node%d", i), PL: privacy.High, CL: privacy.CostLevel(i % 4),
		}, provider.Options{})
		mems = append(mems, mem)
		srv := httptest.NewServer(transport.NewProviderServer(mem))
		defer srv.Close()
		remote, err := transport.DialProvider(srv.URL, nil)
		if err != nil {
			log.Fatal(err)
		}
		must(fleet.Add(remote))
		fmt.Printf("provider %q serving at %s\n", remote.Info().Name, srv.URL)
	}

	// The distributor process.
	dist, err := core.New(core.Config{Fleet: fleet})
	if err != nil {
		log.Fatal(err)
	}
	dsrv := httptest.NewServer(transport.NewDistributorServer(dist))
	defer dsrv.Close()
	fmt.Printf("distributor serving at %s\n\n", dsrv.URL)

	// The client process.
	client := transport.NewClient(dsrv.URL, dsrv.Client())
	must(client.RegisterClient("bob"))
	must(client.AddPassword("bob", "x9pr", privacy.High))

	data := make([]byte, 100_000)
	rand.New(rand.NewSource(3)).Read(data)
	info, err := client.Upload("bob", "x9pr", "archive.bin", data, privacy.Moderate, transport.UploadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client uploaded archive.bin over HTTP: %d chunks\n", info.Chunks)

	// A real outage on a backing node: the distributor reconstructs.
	mems[1].SetOutage(true)
	fmt.Println("node1 goes down...")
	back, err := client.GetFile("bob", "x9pr", "archive.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client retrieved archive.bin during the outage: %d bytes, intact=%v\n",
		len(back), bytes.Equal(back, data))

	stats, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributor stats over the wire: chunks=%d parity=%d per-provider=%v\n",
		stats.Chunks, stats.ParityShards, stats.PerProvider)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
