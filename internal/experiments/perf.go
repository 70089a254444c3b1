package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// DistributionTimeResult is one row of the §VIII-B performance series:
// how long the Cloud Data Distributor takes to fragment and scatter a
// file.
type DistributionTimeResult struct {
	FileBytes  int
	Providers  int
	Raid       raid.Level
	Chunks     int
	Parity     int
	WallTime   time.Duration
	ReadBackOK bool
}

// DistributionTime uploads one file of the given size into a fresh
// system and measures distribution time, then verifies consistency by
// reading the file back (the paper "tested the consistency of the system
// and ... monitored its performance (Distribution time)").
func DistributionTime(fileBytes, nProviders int, level raid.Level, seed int64) (*DistributionTimeResult, error) {
	fleet, err := BuildFleet(nProviders)
	if err != nil {
		return nil, err
	}
	data := dataset.RandomBytes(fileBytes, rand.New(rand.NewSource(seed)))
	l, err := runLab(fleet, core.Config{DefaultRaid: level}, "perf", "payload.bin", data, privacy.Moderate, core.UploadOptions{})
	if err != nil {
		return nil, err
	}
	back, err := l.d.GetFile(l.client, labPassword, "payload.bin")
	return &DistributionTimeResult{
		FileBytes:  fileBytes,
		Providers:  nProviders,
		Raid:       level,
		Chunks:     l.file.Chunks,
		Parity:     l.d.Stats().ParityShards,
		WallTime:   l.took,
		ReadBackOK: err == nil && bytes.Equal(back, data),
	}, nil
}

// DistributionSweep measures distribution time across file sizes and
// provider counts — the series behind the §VIII-B performance claim.
func DistributionSweep(sizes []int, providerCounts []int) ([]*DistributionTimeResult, error) {
	var out []*DistributionTimeResult
	seed := int64(1)
	for _, n := range providerCounts {
		for _, sz := range sizes {
			r, err := DistributionTime(sz, n, raid.RAID5, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
			seed++
		}
	}
	return out, nil
}

// FormatDistributionSweep renders the sweep as a table.
func FormatDistributionSweep(rows []*DistributionTimeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %6s %7s %7s %14s %9s\n",
		"bytes", "providers", "raid", "chunks", "parity", "wall", "readback")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %10d %6s %7d %7d %14v %9v\n",
			r.FileBytes, r.Providers, r.Raid, r.Chunks, r.Parity, r.WallTime.Round(time.Microsecond), r.ReadBackOK)
	}
	return b.String()
}

// MultiDistributorResult demonstrates Fig. 2: retrieval continues through
// secondaries when the primary distributor fails.
type MultiDistributorResult struct {
	Distributors        int
	UploadOK            bool
	PrimaryRetrievalOK  bool
	FailoverRetrievalOK bool
	UploadBlockedOK     bool // a secondary refuses uploads: only the primary writes
}

// MultiDistributor runs the Fig. 2 drill with nDistributors over
// nProviders: a primary whose WAL lives in a temporary directory, and
// secondaries that follow it.
func MultiDistributor(nDistributors, nProviders int, seed int64) (*MultiDistributorResult, error) {
	fleet, err := BuildFleet(nProviders)
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp("", "multidistributor-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	data := dataset.RandomBytes(60_000, rand.New(rand.NewSource(seed)))
	l, err := runLab(fleet, core.Config{Secret: []byte{1}, WALDir: walDir}, "client", "f", data, privacy.Moderate, core.UploadOptions{})
	if err != nil {
		return nil, err
	}
	primary := l.d
	defer core.Crash(primary) // closes the log before its directory goes
	res := &MultiDistributorResult{Distributors: nDistributors, UploadOK: true}
	secondaries := make([]*core.Distributor, nDistributors-1)
	for i := range secondaries {
		if secondaries[i], err = core.New(core.Config{Fleet: fleet, Secret: []byte{byte(i + 2)}}); err != nil {
			return nil, err
		}
		if _, err := secondaries[i].Follow(primary); err != nil {
			return nil, err
		}
	}
	back, err := primary.GetFile(l.client, labPassword, "f")
	res.PrimaryRetrievalOK = err == nil && bytes.Equal(back, data)

	if err := core.Crash(primary); err != nil {
		return nil, err
	}
	res.FailoverRetrievalOK, res.UploadBlockedOK = len(secondaries) > 0, len(secondaries) > 0
	for _, s := range secondaries {
		back, err = s.GetFile(l.client, labPassword, "f")
		res.FailoverRetrievalOK = res.FailoverRetrievalOK && err == nil && bytes.Equal(back, data)
		_, err = s.Upload(l.client, labPassword, "g", data, privacy.Low, core.UploadOptions{})
		res.UploadBlockedOK = res.UploadBlockedOK && errors.Is(err, core.ErrUnavailable)
	}
	return res, nil
}

// Figure3Report renders the paper's Tables I–III from the Figure 3
// scenario plus the two walkthrough outcomes.
func Figure3Report() (string, error) {
	d, err := Figure3Distributor()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table I — Cloud Provider Table\n")
	b.WriteString(core.FormatProviderTable(d.ProviderTable()))
	b.WriteString("\nTable II — Client Table\n")
	b.WriteString(core.FormatClientTable(d.ClientTable()))
	b.WriteString("\nTable III — Chunk Table\n")
	b.WriteString(core.FormatChunkTable(d.ChunkTable()))

	b.WriteString("\nFig. 3 walkthrough:\n")
	if _, err := d.GetChunk("Bob", "x9pr", "file1", 0); err == nil {
		b.WriteString("  (Bob, x9pr, file1, 0) -> chunk served (PL1 password, PL1 chunk)\n")
	} else {
		fmt.Fprintf(&b, "  (Bob, x9pr, file1, 0) -> UNEXPECTED: %v\n", err)
	}
	if _, err := d.GetChunk("Bob", "aB1c", "file1", 0); err != nil {
		b.WriteString("  (Bob, aB1c, file1, 0) -> request denied (PL0 password, PL1 chunk)\n")
	} else {
		b.WriteString("  (Bob, aB1c, file1, 0) -> UNEXPECTED: served\n")
	}
	return b.String(), nil
}
