// Multidistributor demonstrates the paper's Fig. 2 extended architecture:
// several Cloud Data Distributors share one provider fleet. The primary
// handles uploads and logs every commit to its write-ahead log; the
// secondaries follow that log. When the primary fails, retrieval
// continues through a secondary — removing the single point of failure
// §IV-C warns about — and when it recovers from its log, the secondaries
// pick up where they left off.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
)

func main() {
	fleet, err := provider.NewFleet()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p := provider.MustNew(provider.Info{
			Name: fmt.Sprintf("cp%d", i), PL: privacy.High, CL: privacy.CostLevel(i % 4),
		}, provider.Options{})
		must(fleet.Add(p))
	}
	walDir, err := os.MkdirTemp("", "multidistributor-wal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)

	primaryCfg := core.Config{Fleet: fleet, Secret: []byte{1}, WALDir: walDir}
	primary, err := core.New(primaryCfg)
	if err != nil {
		log.Fatal(err)
	}
	var secondaries []*core.Distributor
	for i := 0; i < 2; i++ {
		d, err := core.New(core.Config{Fleet: fleet, Secret: []byte{byte(i + 2)}})
		if err != nil {
			log.Fatal(err)
		}
		secondaries = append(secondaries, d)
	}
	followAll := func() {
		for _, s := range secondaries {
			if _, err := s.Follow(primary); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("1 durable primary + %d secondary distributors over %d providers\n",
		len(secondaries), fleet.Len())

	must(primary.RegisterClient("client"))
	must(primary.AddPassword("client", "pw", privacy.High))
	data := make([]byte, 80_000)
	rand.New(rand.NewSource(7)).Read(data)
	info, err := primary.Upload("client", "pw", "report.bin", data, privacy.Moderate, core.UploadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	followAll()
	fmt.Printf("uploaded report.bin via primary: %d chunks (secondaries followed its log)\n", info.Chunks)

	fmt.Println("\n>>> primary distributor fails")
	// core.Crash is the power-loss path; a graceful shutdown calls Close.
	must(core.Crash(primary))

	back, err := secondaries[0].GetFile("client", "pw", "report.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieval served by a secondary: %d bytes, intact=%v\n", len(back), bytes.Equal(back, data))

	if _, err := secondaries[1].Upload("client", "pw", "new.bin", data, privacy.Low, core.UploadOptions{}); err != nil {
		fmt.Printf("upload refused by a secondary: %v\n", err)
	}

	fmt.Println("\n>>> primary recovers from its log")
	if primary, err = core.New(primaryCfg); err != nil {
		log.Fatal(err)
	}
	if _, err := primary.Upload("client", "pw", "new.bin", data, privacy.Low, core.UploadOptions{}); err != nil {
		log.Fatal(err)
	}
	followAll()
	back, err = secondaries[1].GetFile("client", "pw", "new.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("upload via recovered primary: ok, served by a secondary: intact=%v\n", bytes.Equal(back, data))
	must(primary.Close(context.Background()))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
