package provider

import (
	"fmt"

	"repro/internal/privacy"
)

// Provider is the full surface the distributor and the evaluation harness
// need from a cloud provider, whether it lives in-process (MemProvider) or
// behind HTTP (transport.RemoteProvider): the S3-like data plane, identity,
// availability control for failure injection, and the insider view used by
// attack simulations.
type Provider interface {
	Store
	// Down reports whether the provider was unreachable when last heard
	// from. It answers from memory: no I/O, no waiting. The distributor
	// calls it for every provider of every placement while holding its
	// table lock exclusively, so an implementation that asks the provider
	// stalls every reader and writer for as long as the provider takes to
	// answer. An implementation with something to ask keeps the state
	// itself and refreshes it in Probe.
	Down() bool
	// Probe asks for a fresh liveness answer (true = down) and may block
	// while it does, so it is for callers holding no lock.
	// transport.RemoteProvider makes one health round trip under a short
	// deadline; an in-process provider answers Down, which for it is
	// already the truth.
	Probe() bool
	// SetOutage toggles simulated unavailability.
	SetOutage(down bool)
	// Len returns the number of stored keys.
	Len() int
	// Keys returns stored keys in sorted order.
	Keys() []string
	// Dump returns every stored (key, value) pair — the malicious-insider
	// view of this provider.
	Dump() map[string][]byte
	// Usage returns billing counters.
	Usage() Usage
}

// Fleet is an ordered collection of providers the distributor places
// chunks on. Order is stable: index in the fleet is the paper's "Cloud
// Provider Table index".
type Fleet struct {
	providers []Provider
	byName    map[string]int
}

// NewFleet builds a fleet, rejecting duplicate names.
func NewFleet(providers ...Provider) (*Fleet, error) {
	f := &Fleet{byName: make(map[string]int, len(providers))}
	for _, p := range providers {
		if err := f.Add(p); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Add appends a provider to the fleet.
func (f *Fleet) Add(p Provider) error {
	name := p.Info().Name
	if _, dup := f.byName[name]; dup {
		return fmt.Errorf("provider: duplicate provider %q", name)
	}
	f.byName[name] = len(f.providers)
	f.providers = append(f.providers, p)
	return nil
}

// Len returns the number of providers.
func (f *Fleet) Len() int { return len(f.providers) }

// At returns the provider at fleet index i.
func (f *Fleet) At(i int) (Provider, error) {
	if i < 0 || i >= len(f.providers) {
		return nil, fmt.Errorf("provider: fleet index %d out of range [0,%d)", i, len(f.providers))
	}
	return f.providers[i], nil
}

// ByName looks a provider up by name.
func (f *Fleet) ByName(name string) (Provider, int, error) {
	i, ok := f.byName[name]
	if !ok {
		return nil, 0, fmt.Errorf("provider: unknown provider %q", name)
	}
	return f.providers[i], i, nil
}

// All returns the providers in fleet order (the slice is a copy).
func (f *Fleet) All() []Provider {
	out := make([]Provider, len(f.providers))
	copy(out, f.providers)
	return out
}

// Eligible returns fleet indices of providers whose privacy level is ≥ pl
// and that are up as far as Down knows, in fleet order — the candidates
// the placement policy ranks.
func (f *Fleet) Eligible(pl privacy.Level) []int {
	var out []int
	for i, p := range f.providers {
		if p.Info().PL >= pl && !p.Down() {
			out = append(out, i)
		}
	}
	return out
}

// PaperFleet builds the 7-provider fleet of the paper's Figure 3 (Adobe,
// AWS, Google, Microsoft, Sky, Sea, Earth) with the PL/CL values printed
// in its Cloud Provider Table.
func PaperFleet() (*Fleet, error) {
	specs := []Info{
		{Name: "Adobe", PL: privacy.High, CL: 3},
		{Name: "AWS", PL: privacy.High, CL: 3},
		{Name: "Google", PL: privacy.High, CL: 3},
		{Name: "Microsoft", PL: privacy.High, CL: 3},
		{Name: "Sky", PL: privacy.Moderate, CL: 1},
		{Name: "Sea", PL: privacy.Low, CL: 1},
		{Name: "Earth", PL: privacy.Low, CL: 1},
	}
	f := &Fleet{byName: map[string]int{}}
	for _, s := range specs {
		p, err := New(s, Options{})
		if err != nil {
			return nil, err
		}
		if err := f.Add(p); err != nil {
			return nil, err
		}
	}
	return f, nil
}
