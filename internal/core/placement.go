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

// avoid is the dispersal policy, the only one: the providers the blob in
// slot s may not share, read off its stripe's rows as they stand —
// chunks the chunk rows s and st.Members index, st the stripe s's chunk
// is a member of (for parity, the stripe s names).
//
//   - a data chunk avoids the other members, the parity and its own mirrors;
//   - a mirror avoids its chunk's primary and the chunk's other mirrors;
//   - parity avoids the members and the other parity shards;
//   - a snapshot avoids its chunk's primary.
//
// So a stripe's data and parity sit on distinct providers (RAID survives
// a provider loss), and so do a chunk's copies (a mirror protects
// something); mirrors of different chunks may meet anything.
func avoid(chunks []chunkEntry, st *stripeEntry, s shardSlot) map[int]bool {
	ex := make(map[int]bool)
	switch s.kind {
	case BlobChunk:
		for _, ci := range st.Members {
			if ci != s.idx {
				ex[chunks[ci].CPIndex] = true
			}
		}
		for _, ps := range st.Parity {
			ex[ps.CPIndex] = true
		}
		for _, m := range chunks[s.idx].Mirrors {
			ex[m.CPIndex] = true
		}
	case BlobMirror:
		ex[chunks[s.idx].CPIndex] = true
		for mi, m := range chunks[s.idx].Mirrors {
			if mi != s.sub {
				ex[m.CPIndex] = true
			}
		}
	case BlobParity:
		for _, ci := range st.Members {
			ex[chunks[ci].CPIndex] = true
		}
		for pi, ps := range st.Parity {
			if pi != s.sub {
				ex[ps.CPIndex] = true
			}
		}
	case BlobSnapshot:
		ex[chunks[s.idx].CPIndex] = true
	}
	return ex
}

// homeLocked places the blob in slot s of rows, the one single-blob
// placer: the preferred healthy provider eligible for rows.pl outside
// avoid and failed, staged on rows.ticket under the virtual id the cell
// already holds, and the cell pointed at it. A first placement, a
// failover (restage) and a relocation all come here. Callers hold d.mu,
// and rows.mu once the rows are shipping.
func (d *Distributor) homeLocked(rows *stripeRows, s shardSlot, failed map[int]bool) error {
	prov, vid, err := rows.cell(s)
	if err != nil {
		return err
	}
	ex := avoid(rows.chunks, &rows.stripes[0], s)
	best := -1
	for _, idx := range d.healthyEligible(rows.pl) {
		if !ex[idx] && !failed[idx] && (best == -1 || d.preferLocked(idx, best)) {
			best = idx
		}
	}
	if best == -1 {
		return fmt.Errorf("%w: no provider with PL>=%v left for a %s blob", ErrPlacement, rows.pl, s.kind)
	}
	*prov = best
	d.stageLocked(rows.ticket, best, *vid)
	return nil
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
