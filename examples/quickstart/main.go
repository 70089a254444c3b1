// Quickstart: stand up the full architecture in-process — a fleet of
// simulated cloud providers and the Cloud Data Distributor — then walk
// through the paper's client workflow: register, add ⟨password, PL⟩
// pairs, upload files at different privacy levels, survive a provider
// outage, and print the paper's Tables I–III.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	privcloud "repro"
	"repro/internal/core"
)

func main() {
	// Six providers with mixed reputation (privacy level) and cost.
	sys, err := privcloud.NewSystem(privcloud.SystemConfig{
		Providers: []privcloud.ProviderSpec{
			{Name: "Adobe", Privacy: privcloud.High, Cost: 3},
			{Name: "AWS", Privacy: privcloud.High, Cost: 3},
			{Name: "Google", Privacy: privcloud.High, Cost: 2},
			{Name: "Sky", Privacy: privcloud.Moderate, Cost: 1},
			{Name: "Sea", Privacy: privcloud.Low, Cost: 1},
			{Name: "Earth", Privacy: privcloud.Low, Cost: 0},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// One client, two access groups: admins may read everything, the
	// public password only PL0 data.
	must(sys.RegisterClient("acme"))
	must(sys.AddPassword("acme", "admin-pw", privcloud.High))
	must(sys.AddPassword("acme", "public-pw", privcloud.Public))

	// Upload a sensitive ledger (PL3 → small chunks, trusted providers
	// only) and a public dataset (PL0 → large chunks, any provider).
	rng := rand.New(rand.NewSource(1))
	ledger := make([]byte, 120_000)
	rng.Read(ledger)
	info, err := sys.Upload("acme", "admin-pw", "ledger.bin", ledger, privcloud.High, privcloud.UploadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded ledger.bin: %d bytes -> %d chunks, %v assurance\n", info.Bytes, info.Chunks, info.Raid)

	readme := []byte("hello world — publicly shareable bytes\n")
	info, err = sys.Upload("acme", "admin-pw", "readme.txt", readme, privcloud.Public, privcloud.UploadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded readme.txt: %d bytes -> %d chunks\n", info.Bytes, info.Chunks)

	// Access control: the public password cannot touch the ledger.
	if _, err := sys.GetFile("acme", "public-pw", "ledger.bin"); err != nil {
		fmt.Printf("public-pw denied on ledger.bin: %v\n", err)
	}

	// Availability: take one provider down; RAID-5 masks it.
	must(sys.SetProviderOutage("Google", true))
	back, err := sys.GetFile("acme", "admin-pw", "ledger.bin")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieved ledger.bin with Google down: %d bytes, intact=%v\n", len(back), bytes.Equal(back, ledger))
	must(sys.SetProviderOutage("Google", false))

	// The paper's three tables.
	d := sys.Distributor
	fmt.Println("\nTable I — Cloud Provider Table")
	fmt.Print(core.FormatProviderTable(d.ProviderTable()))
	fmt.Println("\nTable II — Client Table")
	fmt.Print(core.FormatClientTable(d.ClientTable()))
	fmt.Println("\nTable III — Chunk Table (first rows)")
	rows := d.ChunkTable()
	if len(rows) > 6 {
		rows = rows[:6]
	}
	fmt.Print(core.FormatChunkTable(rows))

	st := sys.Stats()
	fmt.Printf("\nplacement: %d chunks + %d parity over %d providers: %v\n",
		st.Chunks, st.ParityShards, len(st.PerProvider), st.PerProvider)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
