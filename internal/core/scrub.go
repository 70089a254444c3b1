package core

import (
	"bytes"

	"repro/internal/provider"
)

// ScrubReport summarizes an integrity pass.
type ScrubReport struct {
	ChunksChecked int
	Healthy       int
	Repaired      int
	Unrepairable  int
	// Skipped counts damaged chunks whose file mutated concurrently
	// between the scan and the repair; the next scrub sees their final
	// state.
	Skipped int
	// ParityChecked/ParityRepaired/ParityUnrepairable cover parity: every
	// stripe's parity shards recomputed from its members and compared
	// byte-for-byte against what the providers hold. Without this check a
	// rotted parity blob stays latent until the exact provider failure it
	// was bought to survive.
	ParityChecked      int
	ParityRepaired     int
	ParityUnrepairable int
	// ParitySkipped counts parity repairs withheld because the stripe
	// mutated concurrently — the parity counterpart of Skipped, kept
	// separate so the chunk and parity counts never alias.
	ParitySkipped int
}

// Scrub verifies every stored chunk against its checksum and every parity
// shard against its stripe, and rewrites any missing, truncated or
// corrupted blob — the background maintenance a production deployment of
// the paper's architecture would run against silent provider corruption.
//
// It is one pass per stripe (scrubStripe) over one copy of the stripe's
// rows, taken in a short d.mu read hold of its own; all verification and
// repair I/O runs without the lock, so a scrub never stalls client
// traffic. A follower refuses it: its repairs would be puts into its
// primary's fleet.
func (d *Distributor) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	for si := 0; ; si++ {
		d.mu.RLock()
		if err := d.writeCheckLocked(nil); err != nil || si >= len(d.stripes) {
			d.mu.RUnlock()
			return rep, err
		}
		st := &d.stripes[si]
		if len(st.Members) == 0 { // a removed file's
			d.mu.RUnlock()
			continue
		}
		rows := d.stripeRowsLocked(st, -1, 0, nil)
		owner := &rows.chunks[0]
		fe := d.clients[owner.Client].Files[owner.Filename]
		gen := fe.Gen
		d.mu.RUnlock()
		d.scrubStripe(rows, fe, gen, &rep)
	}
}

// scrubStripe checks and repairs one stripe, one get per stored blob:
// every member's primary and mirrors through the read ladder's own rungs,
// then the parity. A member's payload is its first copy that verifies;
// for a member none of whose copies does, the ladder's reconstruction
// rung, seeded with everything already in hand, so it fetches nothing
// again. The parity is re-encoded from those payloads and compared byte
// for byte. Only the blobs that failed are rewritten — in place, under
// their own ids, with a raw put and no record: the tables do not change.
// Before any failure is counted or any blob rewritten, the file's
// generation is re-checked: a concurrent write retires the blobs this
// pass read, so they would only look damaged, and rewriting them would
// resurrect retired data — a file that moved on counts its damage as
// skipped. The padded payloads and the recomputed parity are pooled
// scratch released before returning.
func (d *Distributor) scrubStripe(rows *stripeRows, fe *fileEntry, gen uint64, rep *ScrubReport) {
	st := &rows.stripes[0]
	type member struct {
		payload []byte
		ok      bool          // payload verified
		bad     []storedShard // the copies that did not, rewritten from payload
	}
	ms := make([]member, len(st.Members))
	known := make(map[string][]byte, len(ms)+len(st.Parity))
	for i, at := range st.Members {
		e, m := &rows.chunks[at], &ms[i]
		rungs := d.readRungs(rows, at, known)
		for k, rung := range rungs[:len(rungs)-1] {
			res, err := rung.fetch()
			switch {
			case err == nil && !m.ok:
				m.payload, m.ok = res.payload, true
			case err != nil && k == 0:
				m.bad = append(m.bad, storedShard{e.CPIndex, e.VirtualID})
			case err != nil:
				m.bad = append(m.bad, storedShard{e.Mirrors[k-1].CPIndex, e.Mirrors[k-1].VirtualID})
			}
		}
		// A solve uses a verified payload as the member's shard and leaves
		// out a member known to be wrong; an empty payload seeds nothing,
		// nil being that mark.
		if !m.ok || len(m.payload) > 0 {
			known[e.VirtualID] = m.payload
		}
	}
	stored := make([][]byte, len(st.Parity))
	for pi, ps := range st.Parity {
		stored[pi], _ = d.tryGet(ps.CPIndex, ps.VirtualID, st.ShardLen)
		known[ps.VirtualID] = stored[pi] // nil when it did not come back whole
	}
	sick, lost, payloads := 0, false, make([][]byte, len(ms))
	for i := range ms {
		m := &ms[i]
		if !m.ok {
			rungs := d.readRungs(rows, st.Members[i], known)
			if res, err := rungs[len(rungs)-1].fetch(); err == nil {
				m.payload, m.ok = res.payload, true
			}
		}
		if len(m.bad) > 0 {
			sick++
		}
		lost = lost || !m.ok
		payloads[i] = m.payload
	}

	// The parity the stripe should hold; nil when a member is lost and
	// there is no truth to compare against.
	var expected, scratch [][]byte
	defer func() { releaseBuffers(scratch) }()
	if !lost {
		expected, _ = d.encodeParity(st.Level, payloads, st.ShardLen, &scratch)
	}
	var badParity []int
	for pi := range st.Parity {
		if expected == nil || !bytes.Equal(stored[pi], expected[pi]) {
			badParity = append(badParity, pi)
		}
	}
	rep.ChunksChecked += len(ms)
	rep.Healthy += len(ms) - sick
	rep.ParityChecked += len(st.Parity)
	if sick == 0 && len(badParity) == 0 {
		return
	}

	d.mu.RLock()
	changed := d.fileChangedLocked(rows.chunks[0].Client, rows.chunks[0].Filename, fe, gen)
	d.mu.RUnlock()
	if changed {
		rep.Skipped += sick
		rep.ParitySkipped += len(badParity)
		return
	}
	// Repair traffic is recorded but not gated: a scrub is exactly the kind
	// of background write that should keep probing a struggling provider.
	put := func(at storedShard, payload []byte) bool {
		return d.providerOp(at.provIdx, func(p provider.Provider) error { return p.Put(at.vid, payload) }) == nil
	}
	for _, m := range ms {
		if len(m.bad) == 0 {
			continue
		}
		repaired := m.ok
		for _, at := range m.bad {
			if m.ok && !put(at, m.payload) {
				repaired = false
			}
		}
		if repaired {
			rep.Repaired++
		} else {
			rep.Unrepairable++
		}
	}
	for _, pi := range badParity {
		ps := st.Parity[pi]
		if expected != nil && put(storedShard{ps.CPIndex, ps.VirtualID}, expected[pi]) {
			rep.ParityRepaired++
		} else {
			rep.ParityUnrepairable++
		}
	}
}
