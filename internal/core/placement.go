package core

import (
	"fmt"
	"sort"

	"repro/internal/privacy"
)

// loadLocked is a provider's committed shard count plus the shards that
// in-flight writes have staged on it — the quantity placement balances,
// so concurrent writers spread out instead of all picking the provider
// that looked emptiest at the same instant. Callers hold d.mu.
func (d *Distributor) loadLocked(idx int) int {
	return d.provCount[idx] + d.provPending[idx]
}

// preferLocked is the paper's ranking among eligible providers: lower
// cost level wins ("in case of equal privacy level, the one with a lower
// cost level is given preference"), with the current load as a balancing
// tiebreaker. Callers hold d.mu.
func (d *Distributor) preferLocked(a, b int) bool {
	if d.provCL[a] != d.provCL[b] {
		return d.provCL[a] < d.provCL[b]
	}
	return d.loadLocked(a) < d.loadLocked(b)
}

// placeShards chooses n distinct providers for one stripe's shards. The
// policy is the paper's: only providers with privacy level ≥ pl are
// eligible ("A chunk is given to a provider having equal or higher
// privacy level compared to the privacy level of the chunk"), ranked by
// preferLocked. Callers hold d.mu.
func (d *Distributor) placeShards(pl privacy.Level, n int) ([]int, error) {
	eligible := d.healthyEligible(pl)
	if len(eligible) < n {
		return nil, fmt.Errorf("%w: need %d healthy providers with PL>=%v, have %d",
			ErrPlacement, n, pl, len(eligible))
	}
	sort.SliceStable(eligible, func(a, b int) bool {
		return d.preferLocked(eligible[a], eligible[b])
	})
	return eligible[:n], nil
}

// placeParityExcluding picks one healthy eligible provider not in the
// exclusion set, preferring lower cost then lower load. Callers hold d.mu.
func (d *Distributor) placeParityExcluding(pl privacy.Level, exclude map[int]bool) (int, error) {
	best := -1
	for _, idx := range d.healthyEligible(pl) {
		if !exclude[idx] && (best == -1 || d.preferLocked(idx, best)) {
			best = idx
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("%w: no provider for re-encoded parity", ErrPlacement)
	}
	return best, nil
}

// pickSnapshotProvider chooses a provider for a chunk's pre-modification
// snapshot, distinct from the chunk's current provider. Callers hold d.mu.
func (d *Distributor) pickSnapshotProvider(pl privacy.Level, exclude int) (int, error) {
	best := -1
	for _, idx := range d.healthyEligible(pl) {
		if idx != exclude && (best == -1 || d.preferLocked(idx, best)) {
			best = idx
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("%w: no snapshot provider with PL>=%v distinct from current", ErrPlacement, pl)
	}
	return best, nil
}

// healthyEligible filters the fleet's PL-eligible providers down to the
// ones whose circuit breaker admits new placements: a provider that has
// been silently failing is skipped even though it still reports itself
// up. Both filters read memory only — Provider.Down's contract and the
// tracker's own state — so no placement waits on a provider. Callers
// hold d.mu.
func (d *Distributor) healthyEligible(pl privacy.Level) []int {
	eligible := d.fleet.Eligible(pl)
	out := eligible[:0]
	for _, idx := range eligible {
		if d.health.Available(idx) {
			out = append(out, idx)
		}
	}
	return out
}

// effectiveWidth computes the number of data shards per stripe for a
// privacy level and parity count: the configured stripe width, shrunk so
// every shard of a full stripe lands on a distinct eligible provider.
func (d *Distributor) effectiveWidth(pl privacy.Level, parity int) (int, error) {
	eligible := len(d.healthyEligible(pl))
	w := d.stripeWidth
	if eligible-parity < w {
		w = eligible - parity
	}
	if w < 1 {
		return 0, fmt.Errorf("%w: %d eligible providers cannot host %d parity shards plus data",
			ErrPlacement, eligible, parity)
	}
	return w, nil
}
