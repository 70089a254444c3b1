// Clientside demonstrates the paper's §IV-C alternative: the Cloud Data
// Distributor implemented *inside the client* with a Chord-like hash ring
// mapping each ⟨filename, serial⟩ to a provider — no third-party
// distributor to trust or to fail. It also shows the consistent-hashing
// payoff on provider churn.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/clientside"
	"repro/internal/privacy"
	"repro/internal/provider"
)

func main() {
	fleet, err := provider.NewFleet()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p := provider.MustNew(provider.Info{
			Name: fmt.Sprintf("provider-%d", i), PL: privacy.High, CL: 0,
		}, provider.Options{})
		must(fleet.Add(p))
	}

	cd, err := clientside.NewClientDistributor(fleet, privacy.ChunkSizePolicy{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client-side distributor over a %d-node hash ring\n", cd.Ring().Size())

	// Upload straight from the client: the ring decides placement.
	data := make([]byte, 200_000)
	rand.New(rand.NewSource(1)).Read(data)
	n, err := cd.Upload("archive.bin", data, privacy.Moderate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded archive.bin: %d chunks, client table uses %d bytes of memory\n", n, cd.TableBytes())
	for _, p := range fleet.All() {
		fmt.Printf("  %s holds %d chunks\n", p.Info().Name, p.Len())
	}

	back, err := cd.GetFile("archive.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieved: %d bytes, intact=%v\n", len(back), bytes.Equal(back, data))

	// Ring lookups are O(log n) hops.
	ring := cd.Ring()
	members := ring.Members()
	total := 0
	for i := 0; i < 200; i++ {
		res, err := ring.Lookup(members[i%len(members)], clientside.ChunkKey("archive.bin", i))
		if err != nil {
			log.Fatal(err)
		}
		total += res.Hops
	}
	fmt.Printf("mean ring-lookup cost over 200 keys: %.2f hops (log2(%d) = 3)\n",
		float64(total)/200, ring.Size())

	// Consistent hashing under churn: removing one node only remaps the
	// keys it owned.
	moved := 0
	keys := make([]uint64, 1000)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = clientside.ChunkKey("churn-probe", i)
		before[i], _ = ring.Successor(keys[i])
	}
	must(ring.Leave("provider-3"))
	for i := range keys {
		after, _ := ring.Successor(keys[i])
		if after != before[i] {
			moved++
		}
	}
	fmt.Printf("after provider-3 left the ring, only %d/1000 sampled keys remapped\n", moved)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
