// Package privcloud is the public face of this repository: a from-scratch
// Go implementation of the distributed cloud-storage architecture of
// Dev, Sen, Basak and Ali, "An Approach to Protect the Privacy of Cloud
// Data from Data Mining Based Attacks" (2012).
//
// The system defends client data against data-mining attacks by
// categorizing files into privacy levels, fragmenting them into
// level-sized chunks, and distributing the chunks across multiple cloud
// providers under a reputation- and cost-aware placement policy, with
// RAID-5/6 parity for availability, virtual chunk ids for unlinkability,
// optional misleading decoy bytes, and ⟨password, privacy-level⟩ access
// control.
//
// Quick start:
//
//	sys, err := privcloud.NewSystem(privcloud.SystemConfig{
//		Providers: []privcloud.ProviderSpec{
//			{Name: "alpha", Privacy: privcloud.High, Cost: 2},
//			{Name: "beta", Privacy: privcloud.High, Cost: 1},
//			{Name: "gamma", Privacy: privcloud.Moderate, Cost: 0},
//			{Name: "delta", Privacy: privcloud.Low, Cost: 0},
//			{Name: "epsilon", Privacy: privcloud.High, Cost: 3},
//		},
//	})
//	_ = sys.RegisterClient("acme")
//	_ = sys.AddPassword("acme", "s3cret", privcloud.High)
//	info, _ := sys.Upload("acme", "s3cret", "ledger.csv", data, privcloud.High, privcloud.UploadOptions{})
//	back, _ := sys.GetFile("acme", "s3cret", "ledger.csv")
//
// The internal packages implement every substrate the paper's evaluation
// needs — simulated S3-like providers, an HTTP transport, the attacker's
// mining toolkit (regression, hierarchical clustering, Apriori, k-NN,
// naive Bayes), workload generators, an encryption baseline, a Chord-style
// client-side variant, and availability/cost models. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the paper-vs-measured
// record.
package privcloud

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// PrivacyLevel is a file's mining-sensitivity category (the paper's
// PL 0–3).
type PrivacyLevel = privacy.Level

// The paper's four suggested privacy levels.
const (
	Public   = privacy.Public
	Low      = privacy.Low
	Moderate = privacy.Moderate
	High     = privacy.High
)

// RaidLevel selects a stripe's redundancy.
type RaidLevel = raid.Level

// Supported redundancy levels.
const (
	RaidNone = raid.None
	Raid5    = raid.RAID5
	Raid6    = raid.RAID6
)

// UploadOptions re-exports the distributor's per-upload knobs.
type UploadOptions = core.UploadOptions

// FileInfo re-exports the distributor's upload report.
type FileInfo = core.FileInfo

// Stats re-exports distributor placement statistics.
type Stats = core.Stats

// Distributor-visible error values, re-exported so callers can errors.Is
// against them without importing internal packages.
var (
	ErrAuth        = core.ErrAuth
	ErrNoSuchFile  = core.ErrNoSuchFile
	ErrNoSuchChunk = core.ErrNoSuchChunk
	ErrExists      = core.ErrExists
	ErrPlacement   = core.ErrPlacement
	ErrUnavailable = core.ErrUnavailable
	ErrNoSnapshot  = core.ErrNoSnapshot
	ErrConfig      = core.ErrConfig
	ErrCircuitOpen = core.ErrCircuitOpen
	ErrRange       = core.ErrRange
	ErrConflict    = core.ErrConflict
)

// ProviderSpec declares one simulated cloud provider.
type ProviderSpec struct {
	Name string
	// Privacy is the provider's reputation level: chunks of level L may
	// only be placed on providers with Privacy ≥ L.
	Privacy PrivacyLevel
	// Cost is the provider's cost level 0–3 (higher = pricier $/GB-month).
	Cost int
	// FailureRate, if non-zero, injects transient faults with this
	// probability per operation.
	FailureRate float64
}

// SystemConfig assembles an in-process System.
type SystemConfig struct {
	Providers []ProviderSpec
	// DefaultRaid is the assurance used when uploads don't choose one;
	// zero selects RAID-5 (the paper's default).
	DefaultRaid RaidLevel
	// StripeWidth caps data shards per stripe (default 4).
	StripeWidth int
	// Secret keys the virtual-id PRF; fix it for reproducible ids.
	Secret []byte
	// MisleadSeed makes decoy injection reproducible.
	MisleadSeed int64
	// StreamWindow bounds how many stripes an upload (Upload and
	// UploadStream alike) and how many chunks a GetFileTo hold in flight;
	// zero selects the distributor default (4).
	StreamWindow int
}

// System bundles a distributor with its provider fleet — the whole paper
// architecture in one process. The distributor is embedded, so System is
// the embedding API: Upload, UploadStream, GetFile, GetFileTo, GetRange,
// UpdateChunk, Scrub, Metrics and every other core.Distributor method are
// called on it directly. The methods below are the ones that name a
// provider.
type System struct {
	*core.Distributor
	fleet *provider.Fleet
}

// NewSystem builds the fleet and distributor from a config.
func NewSystem(cfg SystemConfig) (*System, error) {
	if len(cfg.Providers) == 0 {
		return nil, fmt.Errorf("%w: no providers", ErrConfig)
	}
	fleet, err := provider.NewFleet()
	if err != nil {
		return nil, err
	}
	for _, spec := range cfg.Providers {
		p, err := provider.New(provider.Info{
			Name: spec.Name,
			PL:   spec.Privacy,
			CL:   privacy.CostLevel(spec.Cost),
		}, provider.Options{FailureRate: spec.FailureRate})
		if err != nil {
			return nil, err
		}
		if err := fleet.Add(p); err != nil {
			return nil, err
		}
	}
	dist, err := core.New(core.Config{
		Fleet:        fleet,
		DefaultRaid:  cfg.DefaultRaid,
		StripeWidth:  cfg.StripeWidth,
		Secret:       cfg.Secret,
		MisleadSeed:  cfg.MisleadSeed,
		StreamWindow: cfg.StreamWindow,
	})
	if err != nil {
		return nil, err
	}
	return &System{Distributor: dist, fleet: fleet}, nil
}

// Fleet exposes the provider fleet for failure injection, billing and
// attack simulation.
func (s *System) Fleet() *provider.Fleet { return s.fleet }

// SetProviderOutage toggles an outage on the named provider.
func (s *System) SetProviderOutage(name string, down bool) error {
	p, _, err := s.fleet.ByName(name)
	if err != nil {
		return err
	}
	p.SetOutage(down)
	return nil
}

// DecommissionProvider evacuates every shard from the named provider onto
// the rest of the fleet (the "provider going out of business" path) and
// marks it down so no new placement selects it.
func (s *System) DecommissionProvider(name string) (core.DecommissionReport, error) {
	p, idx, err := s.fleet.ByName(name)
	if err != nil {
		return core.DecommissionReport{}, err
	}
	rep, err := s.Decommission(idx)
	if err != nil {
		return rep, err
	}
	p.SetOutage(true)
	return rep, nil
}
