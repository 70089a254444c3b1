package core

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/raid"
)

// GetRange serves an arbitrary byte range of a file by fetching only the
// chunks that overlap it — the fragmentation-side win of the paper's
// §VII-E comparison ("This approach exploits the benefit of parallel
// query processing as various fragments can be accessed simultaneously"):
// a point query touches one or two chunks instead of the whole object.
//
// The read is stripe-selective. Phase one reads the overlapping chunks
// from their primaries (fetchPrimaries, the step GetFile starts with) and
// what that missed from primaries and mirrors only. Only if a chunk stays
// unreadable does phase two reconstruct — one stripe solve per affected
// stripe, seeded with the members phase one already verified, so a span
// never fetches shards of stripes it does not touch, and two missing
// members of the same stripe cost one reconstruction instead of two.
func (d *Distributor) GetRange(client, password, filename string, offset, length int) ([]byte, error) {
	if offset < 0 || length < 0 {
		return nil, fmt.Errorf("%w: range [%d, %d)", ErrConfig, offset, offset+length)
	}
	d.mu.RLock()
	c, _, err := d.auth(client, password)
	if err != nil {
		d.mu.RUnlock()
		return nil, err
	}
	fe, ok := c.Files[filename]
	if !ok {
		d.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, filename)
	}
	if _, err := d.authorize(client, password, fe.PL); err != nil {
		d.mu.RUnlock()
		return nil, err
	}
	d.counters.rangeReads.Add(1)
	if length == 0 {
		d.mu.RUnlock()
		return []byte{}, nil
	}

	// Locate overlapping chunks by walking cumulative original sizes.
	// Chunk original length = PayloadLen - decoy count (mislead bytes are
	// not part of the file). Fetch plans for the overlapping chunks are
	// snapshotted under the lock; the provider I/O happens outside it.
	var plans []fetchPlan
	fileOff, cum := 0, 0 // fileOff: where the first overlapping chunk starts
	for serial, idx := range fe.ChunkIdx {
		if idx < 0 {
			d.mu.RUnlock()
			return nil, fmt.Errorf("%w: serial %d was removed", ErrNoSuchChunk, serial)
		}
		entry := &d.chunks[idx]
		if cum+entry.DataLen > offset && cum < offset+length {
			if plans == nil {
				fileOff = cum
			}
			plans = append(plans, d.planFetch(entry))
		}
		cum += entry.DataLen
	}
	if offset+length > cum {
		d.mu.RUnlock()
		return nil, fmt.Errorf("%w: [%d, %d) beyond file of %d bytes", ErrRange, offset, offset+length, cum)
	}
	d.mu.RUnlock()

	// Phase one: primaries, then primaries and mirrors for what those
	// missed. Failures are collected, not returned — a missing member is
	// phase two's job.
	spans := make([]chunkRead, len(plans))
	for i := range spans {
		spans[i].plan = &plans[i]
	}
	missed := d.fetchPrimaries(spans, true)
	d.runParallel(len(missed), func(k int) { _ = d.climbRest(missed[k], true) })

	// Phase two: one shared stripe solve per stripe with unreadable
	// members, seeded with the payloads phase one verified.
	if err := d.reconstructSpanStripes(spans); err != nil {
		return nil, err
	}

	// The spans are consecutive chunks, so each starts where the previous
	// one ended. Their recovered bytes may be views of a multi-get's
	// response buffer (chunkRead): the window is copied out and nothing
	// is handed to a buffer pool.
	out := make([]byte, 0, length)
	for i := range spans {
		recovered := spans[i].res.recovered
		lo := max(offset-fileOff, 0)
		hi := min(offset+length-fileOff, len(recovered))
		out = append(out, recovered[lo:hi]...)
		fileOff += len(recovered)
	}
	return out, nil
}

// reconstructSpanStripes rebuilds every span chunk phase one could not
// read. Spans are grouped by stripe; each affected stripe is solved once
// — members already verified seed the solve as known shards, the other
// surviving shards of that stripe (and only that stripe) are fetched
// raw, and every missing member falls out of the same decode. Rebuilt
// payloads are verified end-to-end before they count.
func (d *Distributor) reconstructSpanStripes(spans []chunkRead) error {
	groups := make(map[int][]int) // StripeID → span indices
	var order []int
	for i := range spans {
		id := spans[i].plan.entry.StripeID
		if _, seen := groups[id]; !seen {
			order = append(order, id)
		}
		groups[id] = append(groups[id], i)
	}
	var degraded []int
	for _, id := range order {
		for _, i := range groups[id] {
			if !spans[i].ok {
				degraded = append(degraded, id)
				break
			}
		}
	}
	if len(degraded) == 0 {
		return nil
	}
	return d.fanOutN(len(degraded), func(k int) error {
		return d.solveSpanStripe(spans, groups[degraded[k]])
	})
}

// solveSpanStripe reconstructs the unreadable members among one stripe's
// spans (idxs index into spans; all share the stripe).
func (d *Distributor) solveSpanStripe(spans []chunkRead, idxs []int) error {
	p0 := spans[idxs[0]].plan
	if p0.parityCount == 0 {
		return fmt.Errorf("%w: provider down and no parity (raid level none)", ErrUnavailable)
	}
	shards := make([][]byte, p0.dataShards+p0.parityCount)
	var pooled [][]byte
	defer func() {
		for _, b := range pooled {
			bufpool.Put(b)
		}
	}()

	spanBySlot := make(map[int]*chunkRead, len(idxs))
	for _, i := range idxs {
		sp := &spans[i]
		if sp.plan.targetSlot < 0 {
			return fmt.Errorf("%w: chunk not a member of its stripe", ErrUnavailable)
		}
		spanBySlot[sp.plan.targetSlot] = sp
	}
	// Seed the solve with the members phase one already verified: their
	// stored payloads, zero-padded to the stripe's shard length.
	for slot, sp := range spanBySlot {
		if !sp.ok {
			continue
		}
		pad := bufpool.Get(p0.shardLen)
		n := copy(pad, sp.res.payload)
		clear(pad[n:])
		shards[slot] = pad
		pooled = append(pooled, pad)
	}
	// Fetch the remaining shards of this stripe — and no other — raw.
	// Slots of members phase one failed stay empty: their bytes are
	// exactly what could not be read or verified.
	for _, ref := range p0.siblings {
		if shards[ref.slot] != nil {
			continue
		}
		if sp, isSpan := spanBySlot[ref.slot]; isSpan && !sp.ok {
			continue
		}
		payload, err := d.rawShard(ref.provIdx, ref.vid, p0.shardLen, ref.payloadLen)
		if err != nil {
			continue // leave nil for the decoder
		}
		shards[ref.slot] = payload
		pooled = append(pooled, payload)
	}
	stripe := &raid.Stripe{Level: p0.level, Shards: shards, DataShards: p0.dataShards}
	if err := stripe.Reconstruct(); err != nil {
		return fmt.Errorf("%w: reconstruction failed: %v", ErrUnavailable, err)
	}
	for slot, sp := range spanBySlot {
		if sp.ok {
			continue
		}
		rebuilt := stripe.Shards[slot]
		if len(rebuilt) < sp.plan.entry.PayloadLen {
			return fmt.Errorf("%w: rebuilt shard shorter than payload", ErrUnavailable)
		}
		payload := make([]byte, sp.plan.entry.PayloadLen)
		copy(payload, rebuilt)
		recovered, err := stripAndVerify(&sp.plan.entry, payload, nil)
		if err != nil {
			return fmt.Errorf("%w: reconstruction yields corrupt payload: %v", ErrUnavailable, err)
		}
		sp.res = fetchResult{payload: payload, recovered: recovered}
		sp.ok = true
		d.counters.reconstructions.Add(1)
	}
	return nil
}
