package core

import (
	"fmt"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// The steps of a stripe re-encode, shared by everything that recomputes
// parity: copy the stripe's rows under d.mu, read the members through the
// copy without it, pad and encode on pooled buffers, ship the new parity
// through shipShard.

// stripeRowsLocked takes a private copy of live stripe st, the one copy
// of a stripe anything takes under d.mu: the member rows in shard order,
// renumbered 0..n-1 and leaving out chunk-table index skip (-1 keeps them
// all), and the parity. A read's snapshot of a stripe is one (openRead,
// Scrub), shared by the reads of all its chunks; a re-encode or a
// relocation reads the members through a pristine one and ships into a
// second, whose cells it patches — mirrors and parity are copied, so
// nothing touches the tables. pl and t are what a write's blobs are placed
// for and staged on (zero for a read). Callers hold d.mu, in either mode.
func (d *Distributor) stripeRowsLocked(st *stripeEntry, skip int, pl privacy.Level, t *writeTicket) *stripeRows {
	r := &stripeRows{pl: pl, ticket: t, chunks: make([]chunkEntry, 0, len(st.Members))}
	r.stripes[0] = stripeEntry{Level: st.Level, ShardLen: st.ShardLen, Members: make([]int, 0, len(st.Members)),
		Parity: make([]parityShard, len(st.Parity))}
	copy(r.stripes[0].Parity, st.Parity)
	for _, cidx := range st.Members {
		if cidx != skip {
			r.stripes[0].Members = append(r.stripes[0].Members, d.copyRowLocked(r, cidx))
		}
	}
	return r
}

// copyRowLocked appends a copy of chunk row cidx, mirrors included, to
// r's chunks and returns its index there. Callers hold d.mu.
func (d *Distributor) copyRowLocked(r *stripeRows, cidx int) int {
	c := d.chunks[cidx]
	c.Mirrors = make([]mirrorRef, len(c.Mirrors))
	copy(c.Mirrors, d.chunks[cidx].Mirrors)
	r.chunks = append(r.chunks, c)
	return len(r.chunks) - 1
}

// fetchMembers reads the verified stored payload of every member of rows'
// stripe but row skip (-1 reads them all), in shard order, through the
// read ladder, with bounded fan-out and no lock held.
func (d *Distributor) fetchMembers(rows *stripeRows, skip int) ([][]byte, error) {
	ats := slices.DeleteFunc(slices.Clone(rows.stripes[0].Members), func(at int) bool { return at == skip })
	payloads := make([][]byte, len(ats))
	err := d.fanOutN(len(ats), func(i int) error {
		res, err := d.readMember(rows, ats[i])
		if err != nil {
			e := &rows.chunks[ats[i]]
			return fmt.Errorf("core: re-encode: stripe member %s#%d unreadable: %w", e.Filename, e.Serial, err)
		}
		payloads[i] = res.payload
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
