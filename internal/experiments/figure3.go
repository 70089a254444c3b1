package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// Figure3VIDs are the virtual ids of Figure 3's Chunk Table, in chunk
// upload order.
var Figure3VIDs = []string{"10986", "13239", "32977", "23434", "18334", "23345", "16948"}

// Figure3Distributor builds the paper's Figure 3 application-architecture
// walkthrough: the 7-provider fleet (Adobe … Earth), client Bob with four
// ⟨password, PL⟩ pairs, client Roy, files file1 (PL1), file2 (PL2) and
// file3 (PL3), and the exact virtual ids printed in the figure. Chunk
// contents are synthetic (the paper does not print them); placement
// follows this implementation's cost/load policy, so the provider hosting
// a given chunk may differ from the figure while always satisfying the
// paper's PL constraint.
func Figure3Distributor() (*core.Distributor, error) {
	fleet, err := provider.PaperFleet()
	if err != nil {
		return nil, err
	}
	dist, err := core.New(core.Config{
		Fleet: fleet,
		// Figure 3 lists one provider per chunk with no parity entries, so
		// the scenario stores stripes without parity.
		DefaultRaid: raid.RAID5,
		StripeWidth: 1,
		VIDs:        core.NewScriptedAllocator(Figure3VIDs),
		ChunkPolicy: privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
			privacy.Public:   1024,
			privacy.Low:      1024,
			privacy.Moderate: 1024,
			privacy.High:     1024,
		}},
	})
	if err != nil {
		return nil, err
	}

	if err := dist.RegisterClient("Bob"); err != nil {
		return nil, err
	}
	bobPasswords := []struct {
		pw string
		pl privacy.Level
	}{
		{"aB1c", privacy.Public},
		{"x9pr", privacy.Low},
		{"6S4r", privacy.Moderate},
		{"Ty7e", privacy.High},
	}
	for _, bp := range bobPasswords {
		if err := dist.AddPassword("Bob", bp.pw, bp.pl); err != nil {
			return nil, err
		}
	}
	if err := dist.RegisterClient("Roy"); err != nil {
		return nil, err
	}
	if err := dist.AddPassword("Roy", "eV2t", privacy.High); err != nil {
		return nil, err
	}

	// file1: 3 chunks at PL1; file2: 2 chunks at PL2; file3 (Roy): 2 at PL3.
	mk := func(chunks int, tag byte) []byte {
		data := make([]byte, chunks*1024)
		for i := range data {
			data[i] = tag + byte(i%7)
		}
		return data
	}
	uploads := []struct {
		client, pw, name string
		data             []byte
		pl               privacy.Level
	}{
		{"Bob", "x9pr", "file1", mk(3, 'a'), privacy.Low},
		{"Bob", "6S4r", "file2", mk(2, 'b'), privacy.Moderate},
		{"Roy", "eV2t", "file3", mk(2, 'c'), privacy.High},
	}
	for _, u := range uploads {
		if _, err := dist.Upload(u.client, u.pw, u.name, u.data, u.pl, core.UploadOptions{NoParity: true}); err != nil {
			return nil, fmt.Errorf("scenario upload %s: %w", u.name, err)
		}
	}
	return dist, nil
}
