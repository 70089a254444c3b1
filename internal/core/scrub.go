package core

import (
	"bytes"

	"repro/internal/provider"
	"repro/internal/raid"
)

// ScrubReport summarizes an integrity pass.
type ScrubReport struct {
	ChunksChecked int
	Healthy       int
	Repaired      int
	Unrepairable  int
	// Skipped counts chunks that mutated concurrently between the scan
	// and the repair; the next scrub sees their final state.
	Skipped int
	// ParityChecked/ParityRepaired/ParityUnrepairable cover the second
	// phase: every stripe's parity shards recomputed from its members and
	// compared byte-for-byte against what the providers hold. Without
	// this phase a rotted parity blob stays latent until the exact
	// provider failure it was bought to survive.
	ParityChecked      int
	ParityRepaired     int
	ParityUnrepairable int
	// ParitySkipped counts parity repairs withheld because the stripe
	// mutated concurrently — the parity phase's counterpart of Skipped,
	// kept separate so the two phases' counts never alias.
	ParitySkipped int
}

// Scrub verifies every stored chunk against its checksum and rewrites any
// missing, truncated or corrupted shard from its mirrors or RAID peers —
// the background maintenance a production deployment of the paper's
// architecture would run against silent provider corruption.
//
// The chunk table is snapshotted under d.mu; all verification and repair
// I/O runs without the lock so a scrub never stalls client traffic.
// Before rewriting a damaged chunk the owning file's generation is
// re-checked: a chunk mutated since the scan belongs to a newer write,
// and repairing its old blobs would only resurrect retired data.
func (d *Distributor) Scrub() (ScrubReport, error) {
	d.mu.RLock()
	type item struct {
		plan fetchPlan
		fe   *fileEntry
		gen  uint64
	}
	items := make([]item, 0, len(d.chunks))
	for i := range d.chunks {
		entry := &d.chunks[i]
		if entry.CPIndex < 0 {
			continue // removed
		}
		fe := d.clients[entry.Client].Files[entry.Filename]
		items = append(items, item{plan: d.planFetch(entry), fe: fe, gen: fe.Gen})
	}
	d.mu.RUnlock()

	var rep ScrubReport
	for k := range items {
		it := &items[k]
		entry := &it.plan.entry
		rep.ChunksChecked++

		healthy := false
		if payload, ok := d.tryGet(entry.CPIndex, entry.VirtualID, entry.PayloadLen); ok {
			if d.payloadMatches(entry, payload) {
				healthy = true
			}
		}
		if healthy {
			// Also verify mirrors; refresh any stale copy.
			stale := false
			for _, m := range entry.Mirrors {
				payload, ok := d.tryGet(m.CPIndex, m.VirtualID, entry.PayloadLen)
				if !ok || !d.payloadMatches(entry, payload) {
					stale = true
				}
			}
			if !stale {
				rep.Healthy++
				continue
			}
		}

		// Rebuild the canonical payload from any healthy source — the
		// read ladder only returns verified bytes.
		payload, err := d.fetchPayloadPlan(&it.plan)
		if err != nil {
			rep.Unrepairable++
			continue
		}

		d.mu.RLock()
		feNow, ok := d.clients[entry.Client].Files[entry.Filename]
		changed := !ok || feNow != it.fe || feNow.Gen != it.gen
		d.mu.RUnlock()
		if changed {
			rep.Skipped++
			continue
		}

		// Rewrite primary and mirrors. Repair traffic is recorded but not
		// gated: a scrub is exactly the kind of background write that
		// should keep probing a struggling provider.
		repaired := true
		if e := d.providerOp(entry.CPIndex, func(p provider.Provider) error {
			return p.Put(entry.VirtualID, payload)
		}); e != nil {
			repaired = false
		}
		for _, m := range entry.Mirrors {
			m := m
			if e := d.providerOp(m.CPIndex, func(p provider.Provider) error {
				return p.Put(m.VirtualID, payload)
			}); e != nil {
				repaired = false
			}
		}
		if repaired {
			rep.Repaired++
		} else {
			rep.Unrepairable++
		}
	}
	d.scrubParity(&rep)
	return rep, nil
}

// stripeScrubItem is one parity-carrying stripe snapshotted for the
// scrub's second phase.
type stripeScrubItem struct {
	level    raid.Level
	shardLen int
	parity   []parityShard
	members  []stripeMember
	fe       *fileEntry
	gen      uint64
	client   string
	filename string
}

// scrubParity is Scrub's second phase: recompute every stripe's parity
// from its (verified) member payloads and rewrite any parity blob that
// is missing, truncated or holds different bytes. The same generation
// re-check as chunk repair applies — a stripe mutated since the snapshot
// belongs to a newer write and is left to the next scrub (counted in
// ParitySkipped).
func (d *Distributor) scrubParity(rep *ScrubReport) {
	d.mu.RLock()
	items := make([]stripeScrubItem, 0, len(d.stripes))
	for si := range d.stripes {
		st := &d.stripes[si]
		if len(st.Parity) == 0 || len(st.Members) == 0 {
			continue
		}
		owner := &d.chunks[st.Members[0]]
		if owner.CPIndex < 0 {
			continue
		}
		fe := d.clients[owner.Client].Files[owner.Filename]
		items = append(items, stripeScrubItem{
			level:    st.Level,
			shardLen: st.ShardLen,
			parity:   append([]parityShard(nil), st.Parity...),
			members:  d.planMembersLocked(st, -1),
			fe:       fe,
			gen:      fe.Gen,
			client:   owner.Client,
			filename: owner.Filename,
		})
	}
	d.mu.RUnlock()

	for k := range items {
		d.scrubStripeParity(&items[k], rep)
	}
}

// scrubStripeParity verifies and repairs one stripe's parity shards. The
// padded member copies and recomputed parity live in pooled scratch
// released before returning.
func (d *Distributor) scrubStripeParity(it *stripeScrubItem, rep *ScrubReport) {
	rep.ParityChecked += len(it.parity)

	var scratch [][]byte
	defer func() { releaseBuffers(scratch) }()

	// Parity is computed over the zero-padded stored payloads, so the
	// members must be readable (any healthy source) to know the truth.
	// Read one at a time, stopping at the first that is not: a scrub is
	// background work and should not fan out or read on for nothing.
	payloads := make([][]byte, len(it.members))
	for mi := range it.members {
		var err error
		if payloads[mi], err = d.fetchPayloadPlan(&it.members[mi].plan); err != nil {
			rep.ParityUnrepairable += len(it.parity)
			return
		}
	}
	expected, err := d.encodeParity(it.level, payloads, it.shardLen, &scratch)
	if err != nil {
		rep.ParityUnrepairable += len(it.parity)
		return
	}

	for pi, ps := range it.parity {
		if pi >= len(expected) {
			break
		}
		got, ok := d.tryGet(ps.CPIndex, ps.VirtualID, it.shardLen)
		if ok && bytes.Equal(got, expected[pi]) {
			continue // healthy
		}
		d.mu.RLock()
		feNow, ok := d.clients[it.client].Files[it.filename]
		changed := !ok || feNow != it.fe || feNow.Gen != it.gen
		d.mu.RUnlock()
		if changed {
			rep.ParitySkipped++
			continue
		}
		ps := ps
		pi := pi
		if e := d.providerOp(ps.CPIndex, func(p provider.Provider) error {
			return p.Put(ps.VirtualID, expected[pi])
		}); e != nil {
			rep.ParityUnrepairable++
		} else {
			rep.ParityRepaired++
		}
	}
}

// payloadMatches verifies a stored payload against the chunk's checksum
// (after stripping misleading bytes).
func (d *Distributor) payloadMatches(entry *chunkEntry, payload []byte) bool {
	data, err := stripAndVerify(entry, payload, nil)
	return err == nil && data != nil
}
