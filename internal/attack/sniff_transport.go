package attack

import (
	"fmt"
	"sort"

	"repro/internal/transport"
)

// SniffTransport collects the full contents of networked providers — the
// view of an adversary who owns (or has compromised) the providers behind
// the given base URLs. It is DumpProviders for the deployed system: the
// toolkit dials each provider's HTTP surface exactly as the distributor
// would and pulls its insider dump, so every campaign that runs against
// an in-process provider.Fleet runs unchanged against loopback or
// multi-host fleets.
//
// Collusion scope is the URL list: pass one URL for the single malicious
// insider, one shard's fleet for a colluding provider ring, or every
// fleet of every shard for the strongest pooled adversary.
func SniffTransport(urls []string) ([]Blob, error) {
	var blobs []Blob
	for _, u := range urls {
		rp, err := transport.DialProvider(u, nil)
		if err != nil {
			return nil, fmt.Errorf("attack: sniff %s: %w", u, err)
		}
		dump := rp.Dump()
		if dump == nil {
			return nil, fmt.Errorf("attack: sniff %s: provider dump unreachable", u)
		}
		name := rp.Info().Name
		for key, data := range dump {
			blobs = append(blobs, Blob{Provider: name, Key: key, Data: data})
		}
	}
	sort.Slice(blobs, func(a, b int) bool {
		if blobs[a].Provider != blobs[b].Provider {
			return blobs[a].Provider < blobs[b].Provider
		}
		return blobs[a].Key < blobs[b].Key
	})
	return blobs, nil
}
