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
	"repro/internal/provider"
	"repro/internal/raid"
)

// BuildFleet constructs n simulated providers with rotating cost levels
// and the given per-operation latency model (zero for pure-throughput
// benches, non-zero to model WAN providers like the paper's lab PCs).
func BuildFleet(n int, latency provider.LatencyModel) (*provider.Fleet, error) {
	fleet, err := provider.NewFleet()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		p, err := provider.New(provider.Info{
			Name: fmt.Sprintf("cp%02d", i),
			PL:   privacy.High,
			CL:   privacy.CostLevel(i % 4),
		}, provider.Options{Latency: latency})
		if err != nil {
			return nil, err
		}
		if err := fleet.Add(p); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// DistributionTimeResult is one row of the §VIII-B performance series:
// how long the Cloud Data Distributor takes to fragment and scatter a
// file, wall-clock and simulated provider time.
type DistributionTimeResult struct {
	FileBytes     int
	Providers     int
	Raid          raid.Level
	Chunks        int
	Parity        int
	WallTime      time.Duration
	SimulatedTime time.Duration
	ReadBackOK    bool
}

// DistributionTime uploads one file of the given size into a fresh
// system and measures distribution time, then verifies consistency by
// reading the file back (the paper "tested the consistency of the system
// and ... monitored its performance (Distribution time)").
func DistributionTime(fileBytes, nProviders int, level raid.Level, latency provider.LatencyModel, seed int64) (*DistributionTimeResult, error) {
	fleet, err := BuildFleet(nProviders, latency)
	if err != nil {
		return nil, err
	}
	d, err := core.New(core.Config{Fleet: fleet, DefaultRaid: level})
	if err != nil {
		return nil, err
	}
	if err := d.RegisterClient("perf"); err != nil {
		return nil, err
	}
	if err := d.AddPassword("perf", "pw", privacy.High); err != nil {
		return nil, err
	}
	data := dataset.RandomBytes(fileBytes, rand.New(rand.NewSource(seed)))

	start := time.Now()
	info, err := d.Upload("perf", "pw", "payload.bin", data, privacy.Moderate, core.UploadOptions{})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	var simTime time.Duration
	for _, p := range fleet.All() {
		simTime += p.Usage().SimulatedTime
	}
	back, err := d.GetFile("perf", "pw", "payload.bin")
	res := &DistributionTimeResult{
		FileBytes:     fileBytes,
		Providers:     nProviders,
		Raid:          level,
		Chunks:        info.Chunks,
		Parity:        d.Stats().ParityShards,
		WallTime:      wall,
		SimulatedTime: simTime,
		ReadBackOK:    err == nil && bytes.Equal(back, data),
	}
	return res, nil
}

// DistributionSweep measures distribution time across file sizes and
// provider counts — the series behind the §VIII-B performance claim.
func DistributionSweep(sizes []int, providerCounts []int, latency provider.LatencyModel) ([]*DistributionTimeResult, error) {
	var out []*DistributionTimeResult
	seed := int64(1)
	for _, n := range providerCounts {
		for _, sz := range sizes {
			r, err := DistributionTime(sz, n, raid.RAID5, latency, seed)
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
	fmt.Fprintf(&b, "%10s %10s %6s %7s %7s %14s %14s %9s\n",
		"bytes", "providers", "raid", "chunks", "parity", "wall", "simulated", "readback")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %10d %6s %7d %7d %14v %14v %9v\n",
			r.FileBytes, r.Providers, r.Raid, r.Chunks, r.Parity, r.WallTime.Round(time.Microsecond), r.SimulatedTime, r.ReadBackOK)
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
	fleet, err := BuildFleet(nProviders, provider.LatencyModel{})
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp("", "multidistributor-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	dists := make([]*core.Distributor, nDistributors)
	for i := range dists {
		cfg := core.Config{Fleet: fleet, Secret: []byte{byte(i + 1)}}
		if i == 0 {
			cfg.WALDir = walDir
		}
		if dists[i], err = core.New(cfg); err != nil {
			return nil, err
		}
	}
	primary, secondaries := dists[0], dists[1:]
	defer core.Crash(primary) // closes the log before its directory goes
	if err := primary.RegisterClient("client"); err != nil {
		return nil, err
	}
	if err := primary.AddPassword("client", "pw", privacy.High); err != nil {
		return nil, err
	}
	data := dataset.RandomBytes(60_000, rand.New(rand.NewSource(seed)))
	res := &MultiDistributorResult{Distributors: nDistributors}
	if _, err := primary.Upload("client", "pw", "f", data, privacy.Moderate, core.UploadOptions{}); err != nil {
		return nil, err
	}
	res.UploadOK = true
	for _, s := range secondaries {
		if _, err := s.Follow(primary); err != nil {
			return nil, err
		}
	}
	back, err := primary.GetFile("client", "pw", "f")
	res.PrimaryRetrievalOK = err == nil && bytes.Equal(back, data)

	if err := core.Crash(primary); err != nil {
		return nil, err
	}
	res.FailoverRetrievalOK = len(secondaries) > 0
	for _, s := range secondaries {
		back, err = s.GetFile("client", "pw", "f")
		res.FailoverRetrievalOK = res.FailoverRetrievalOK && err == nil && bytes.Equal(back, data)
	}
	res.UploadBlockedOK = len(secondaries) > 0
	for _, s := range secondaries {
		_, err = s.Upload("client", "pw", "g", data, privacy.Low, core.UploadOptions{})
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
