package core

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// The steps of a stripe re-encode, shared by everything that recomputes
// parity: snapshot the members under d.mu, read them without it, pad and
// encode on pooled buffers, ship the new parity through shipShard.

// stripeMember is one data member of a stripe snapshotted for a
// re-encode: its chunk-table index and a fetch plan taken while the
// stripe's parity was still consistent with it (the plan's entry copy
// carries the member's provider and identity).
type stripeMember struct {
	chunkIdx int
	plan     fetchPlan
}

// planMembersLocked snapshots st's members in shard order, leaving out
// chunk-table index skip (-1 keeps them all). Callers hold d.mu, in
// either mode.
func (d *Distributor) planMembersLocked(st *stripeEntry, skip int) []stripeMember {
	ms := make([]stripeMember, 0, len(st.Members))
	for _, cidx := range st.Members {
		if cidx != skip {
			ms = append(ms, stripeMember{chunkIdx: cidx, plan: d.planFetch(&d.chunks[cidx])})
		}
	}
	return ms
}

// stripeRowsLocked takes a write's private copy of live stripe st, the
// rows its slots are shipped over: the member rows in shard order,
// renumbered 0..n-1 and leaving out chunk-table index skip (-1 keeps them
// all), and the parity. Mirrors and parity are copied, so the write
// patches its cells without touching the tables; pl and t are what its
// blobs are placed for and staged on. Callers hold d.mu.
func (d *Distributor) stripeRowsLocked(st *stripeEntry, skip int, pl privacy.Level, t *writeTicket) *stripeRows {
	r := &stripeRows{pl: pl, ticket: t}
	r.stripes[0] = stripeEntry{Level: st.Level, ShardLen: st.ShardLen, Parity: make([]parityShard, len(st.Parity))}
	copy(r.stripes[0].Parity, st.Parity)
	for _, cidx := range st.Members {
		if cidx == skip {
			continue
		}
		c := d.chunks[cidx]
		c.Mirrors = make([]mirrorRef, len(c.Mirrors))
		copy(c.Mirrors, d.chunks[cidx].Mirrors)
		r.stripes[0].Members = append(r.stripes[0].Members, len(r.chunks))
		r.chunks = append(r.chunks, c)
	}
	return r
}

// fetchMembers reads every member's verified stored payload through the
// read ladder, with bounded fan-out and no lock held.
func (d *Distributor) fetchMembers(ms []stripeMember) ([][]byte, error) {
	payloads := make([][]byte, len(ms))
	err := d.fanOutN(len(ms), func(i int) error {
		var err error
		if payloads[i], err = d.fetchPayloadPlan(&ms[i].plan); err != nil {
			e := &ms[i].plan.entry
			return fmt.Errorf("core: re-encode: stripe member %s#%d unreadable: %w", e.Filename, e.Serial, err)
		}
		return nil
	})
	return payloads, err
}

// stripeShardLen is the shard length of a stripe over payloads: the
// longest of them, and at least one byte — parity over empty chunks
// still needs one.
func stripeShardLen(payloads [][]byte) int {
	shardLen := 1
	for _, p := range payloads {
		shardLen = max(shardLen, len(p))
	}
	return shardLen
}

// encodeParity computes level's parity over payloads at shardLen and
// returns one buffer per parity shard (none for a level without parity).
// Parity math needs equal-length shards: payloads shorter than shardLen
// get a zero-padded copy. Copies and parity are pooled scratch appended
// to *pooled, which the caller returns to bufpool once the parity has
// shipped (providers copy on Put). Runs without d.mu, like all byte work.
func (d *Distributor) encodeParity(level raid.Level, payloads [][]byte, shardLen int, pooled *[][]byte) ([][]byte, error) {
	if level.ParityShards() == 0 {
		return nil, nil
	}
	padded := make([][]byte, len(payloads))
	for i, p := range payloads {
		if len(p) == shardLen {
			padded[i] = p
			continue
		}
		pad := bufpool.Get(shardLen)
		n := copy(pad, p)
		clear(pad[n:])
		padded[i] = pad
		*pooled = append(*pooled, pad)
	}
	parity := make([][]byte, level.ParityShards())
	for pi := range parity {
		parity[pi] = bufpool.Get(shardLen)
		*pooled = append(*pooled, parity[pi])
	}
	if err := raid.ParityInto(level, padded, parity); err != nil {
		return nil, fmt.Errorf("core: parity: %w", err)
	}
	d.byteWork("parity")
	return parity, nil
}

// releaseBuffers returns pooled scratch to bufpool.
func releaseBuffers(pooled [][]byte) {
	for _, b := range pooled {
		bufpool.Put(b)
	}
}
