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
// mining toolkit (regression, hierarchical clustering, k-means, Apriori,
// k-NN), workload generators, an encryption baseline, a Chord-style
// client-side variant, and availability/cost models. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the paper-vs-measured
// record.
package privcloud

import (
	"fmt"
	"io"

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
	// UploadFrom alike) and how many chunks a GetFileTo hold in flight;
	// zero selects the distributor default (4).
	StreamWindow int
}

// System bundles a distributor with its provider fleet — the whole paper
// architecture in one process.
type System struct {
	dist  *core.Distributor
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
	return &System{dist: dist, fleet: fleet}, nil
}

// RegisterClient creates a client account.
func (s *System) RegisterClient(name string) error { return s.dist.RegisterClient(name) }

// AddPassword associates a ⟨password, PL⟩ pair with a client.
func (s *System) AddPassword(client, password string, pl PrivacyLevel) error {
	return s.dist.AddPassword(client, password, pl)
}

// Upload categorizes, fragments and distributes a file.
func (s *System) Upload(client, password, filename string, data []byte, pl PrivacyLevel, opts UploadOptions) (FileInfo, error) {
	return s.dist.Upload(client, password, filename, data, pl, opts)
}

// UploadFrom is Upload behind an io.Reader: the same pipeline — chunked,
// striped and shipped as bytes arrive, at most SystemConfig.StreamWindow
// stripes in memory — without the caller's slice; the entry point for
// objects too large to materialize.
func (s *System) UploadFrom(client, password, filename string, r io.Reader, pl PrivacyLevel, opts UploadOptions) (FileInfo, error) {
	return s.dist.UploadStream(client, password, filename, r, pl, opts)
}

// GetFile retrieves and reassembles a file.
func (s *System) GetFile(client, password, filename string) ([]byte, error) {
	return s.dist.GetFile(client, password, filename)
}

// GetFileTo streams a whole file into w in order with bounded lookahead,
// never buffering more than the stream window. It returns the bytes
// written; on error the count reports the delivered prefix.
func (s *System) GetFileTo(w io.Writer, client, password, filename string) (int64, error) {
	return s.dist.GetFileTo(w, client, password, filename)
}

// GetChunk retrieves one chunk by serial number.
func (s *System) GetChunk(client, password, filename string, serial int) ([]byte, error) {
	return s.dist.GetChunk(client, password, filename, serial)
}

// GetSnapshot retrieves a chunk's pre-modification state.
func (s *System) GetSnapshot(client, password, filename string, serial int) ([]byte, error) {
	return s.dist.GetSnapshot(client, password, filename, serial)
}

// UpdateChunk replaces one chunk, snapshotting the previous state.
func (s *System) UpdateChunk(client, password, filename string, serial int, data []byte) error {
	return s.dist.UpdateChunk(client, password, filename, serial, data, UploadOptions{})
}

// RemoveChunk deletes one chunk.
func (s *System) RemoveChunk(client, password, filename string, serial int) error {
	return s.dist.RemoveChunk(client, password, filename, serial)
}

// RemoveFile deletes a file and all of its shards.
func (s *System) RemoveFile(client, password, filename string) error {
	return s.dist.RemoveFile(client, password, filename)
}

// GetRange retrieves an arbitrary byte range, touching only the chunks
// that overlap it.
func (s *System) GetRange(client, password, filename string, offset, length int) ([]byte, error) {
	return s.dist.GetRange(client, password, filename, offset, length)
}

// Scrub verifies every stored chunk and repairs corrupted or missing
// shards from mirrors or RAID parity.
func (s *System) Scrub() (core.ScrubReport, error) { return s.dist.Scrub() }

// AuditOrphans finds (and with gc=true removes) provider-resident objects
// the distributor's tables no longer reference.
func (s *System) AuditOrphans(gc bool) (core.AuditReport, error) { return s.dist.AuditOrphans(gc) }

// ChunkCount reports a file's chunk count.
func (s *System) ChunkCount(client, password, filename string) (int, error) {
	return s.dist.ChunkCount(client, password, filename)
}

// Stats returns placement statistics.
func (s *System) Stats() Stats { return s.dist.Stats() }

// Metrics returns the distributor's operation counters (reads, recovery
// events, retries).
func (s *System) Metrics() core.OpMetrics { return s.dist.Metrics() }

// Health reports each provider's circuit-breaker state and accumulated
// success/failure counts, as observed by the distributor's own
// operations.
func (s *System) Health() []core.ProviderHealth { return s.dist.Health() }

// Distributor exposes the underlying distributor for advanced use
// (tables, metadata replication, HTTP serving).
func (s *System) Distributor() *core.Distributor { return s.dist }

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
	rep, err := s.dist.Decommission(idx)
	if err != nil {
		return rep, err
	}
	p.SetOutage(true)
	return rep, nil
}
