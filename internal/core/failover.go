package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/privacy"
)

// stagedShard is one provider blob a write has planned: the slot of its
// stripe's rows it fills, and the bytes it carries. Where it is staged
// is the slot's cell — shipShard reads it there and a failover patches
// it there.
type stagedShard struct {
	slot    shardSlot
	payload []byte
}

// stripeRows is one stripe and the chunk rows of its members, private to
// the write that ships into them: an upload's staged rows, or the copy
// an update, a chunk removal or a relocation takes of a live stripe
// (stripeRowsLocked). Slots resolve over it as over the live tables —
// chunk slots index chunks, parity slots name stripe 0 — and a blob's
// exclusions are read off it as they stand (avoid). Its blobs are placed
// for pl and staged on ticket.
type stripeRows struct {
	pl      privacy.Level
	ticket  *writeTicket
	chunks  []chunkEntry
	stripes [1]stripeEntry

	// The stripe's blobs may ship on different goroutines (an upload's
	// put pool). mu makes a failover's "read the mates' providers, place,
	// record the new provider" one step, so two blobs of the stripe
	// failing at once can never re-home onto the same provider.
	mu sync.Mutex
}

// cell resolves slot s over the rows.
func (r *stripeRows) cell(s shardSlot) (prov *int, vid *string, err error) {
	return cell(r.chunks, r.stripes[:], s)
}

// storedShard locates a blob that reached a provider, for rollback.
type storedShard struct {
	provIdx int
	vid     string
}

// writeTicket tracks what one in-flight mutation has staged but not yet
// committed: the per-provider shard deltas (mirrored into d.provPending
// so concurrent planners balance load against them) and the staged
// virtual ids (registered in d.inflight so the orphan audit never
// collects a blob that is shipped but not yet committed). A ticket ends
// in releaseTicketLocked — from commitLocked once the commit record has
// applied (the tables reference and count the blobs from then on), or
// from the abort path.
type writeTicket struct {
	delta []int
	vids  []string
}

// newTicketLocked opens a ticket. Callers hold d.mu.
func (d *Distributor) newTicketLocked() *writeTicket {
	return &writeTicket{delta: make([]int, d.fleet.Len())}
}

// stageLocked records one staged blob on provIdx. Callers hold d.mu.
func (d *Distributor) stageLocked(t *writeTicket, provIdx int, vid string) {
	t.delta[provIdx]++
	d.provPending[provIdx]++
	d.inflight[vid]++
	t.vids = append(t.vids, vid)
}

// unstageProviderLocked moves one staged blob off provIdx because a
// failover is about to re-home it. The superseded vid stays registered
// until the ticket ends — it only shields a doomed blob from the audit a
// little longer. Callers hold d.mu.
func (d *Distributor) unstageProviderLocked(t *writeTicket, provIdx int) {
	t.delta[provIdx]--
	d.provPending[provIdx]--
}

// releaseTicketLocked withdraws the ticket's pending load and inflight
// registrations; committed counts are not its business. Releasing a nil
// or already released ticket does nothing. Callers hold d.mu.
func (d *Distributor) releaseTicketLocked(t *writeTicket) {
	if t == nil {
		return
	}
	for i, n := range t.delta {
		d.provPending[i] -= n
	}
	for _, vid := range t.vids {
		if d.inflight[vid]--; d.inflight[vid] <= 0 {
			delete(d.inflight, vid)
		}
	}
	t.delta = nil
	t.vids = nil
}

// releaseTicket is releaseTicketLocked for callers outside the lock.
func (d *Distributor) releaseTicket(t *writeTicket) {
	d.mu.Lock()
	d.releaseTicketLocked(t)
	d.mu.Unlock()
}

// restage moves the blob in slot s of rows off the provider that just
// failed it: unstaged there, a fresh virtual id, and a new home outside
// avoid and failed (homeLocked) — under rows.mu, so the stripe's other
// blobs see it, and one short hold of d.mu, the only lock a write
// failover takes (placement and the VID allocator live under it). On
// error the ticket no longer counts the blob.
func (d *Distributor) restage(rows *stripeRows, s shardSlot, failed map[int]bool) (int, string, error) {
	rows.mu.Lock()
	defer rows.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	prov, vid, err := rows.cell(s)
	if err != nil {
		return 0, "", err
	}
	d.unstageProviderLocked(rows.ticket, *prov)
	*vid = d.vids.Next()
	if err := d.homeLocked(rows, s, failed); err != nil {
		return 0, "", err
	}
	return *prov, *vid, nil
}

// shipShard puts one staged blob where its slot's cell says, through
// rehomePut: the one ship step of every write. A failover restages it
// against the rows as they stand, so on success the cell holds wherever
// the blob landed. failed seeds the providers it may never land on (a
// relocation's departing provider); nil for none. g is the upload's gate
// (nil for other writes): the put's first failure latches it until the
// put lands or gives up.
func (d *Distributor) shipShard(rows *stripeRows, s stagedShard, failed map[int]bool, g *putGate) (storedShard, error) {
	// Only this ship writes the blob's own cell, so reading it needs no lock.
	prov, vid, err := rows.cell(s.slot)
	if err != nil {
		return storedShard{}, err
	}
	at := storedShard{*prov, *vid}
	l := putLatch{g: g}
	at.provIdx, at.vid, err = d.rehomePut(at.provIdx, at.vid, s.payload, failed, &l, func(failed map[int]bool) (int, string, error) {
		l.take() // taken already unless the circuit refused the put
		return d.restage(rows, s.slot, failed)
	})
	l.release(err)
	return at, err
}

// shipEach ships shards one after another, in order, appending every
// blob stored to *stored for the caller's rollback.
func (d *Distributor) shipEach(rows *stripeRows, shards []stagedShard, stored *[]storedShard) error {
	for _, s := range shards {
		at, err := d.shipShard(rows, s, nil, nil)
		if err != nil {
			return fmt.Errorf("core: writing %s: %w", s.slot.kind, err)
		}
		*stored = append(*stored, at)
	}
	return nil
}

// rehomePut is the write-failover loop, the only one: it puts payload on
// provider prov under vid through the circuit-breaker gate (a failed
// attempt takes l), and when a put exhausts its transient retries or the
// circuit is open asks rehome for the blob's next home — never a
// provider in failed, the ones that already failed this blob — and tries
// there. Only when rehome has
// nowhere left does the write fail. Returns the provider and virtual id
// that finally stored the blob. Runs WITHOUT d.mu: the provider round
// trips are the slow part of every write, and holding the lock here
// would serialize all clients behind one slow provider.
func (d *Distributor) rehomePut(prov int, vid string, payload []byte, failed map[int]bool, l *putLatch, rehome func(failed map[int]bool) (int, string, error)) (int, string, error) {
	for {
		err := d.gatedPut(prov, vid, payload, l)
		if err == nil {
			return prov, vid, nil
		}
		if failed == nil {
			failed = make(map[int]bool) // allocated by the first failure: most puts have none
		}
		failed[prov] = true
		var perr error
		if prov, vid, perr = rehome(failed); perr != nil {
			return 0, "", fmt.Errorf("write failover exhausted: %w (last put error: %v)", perr, err)
		}
		d.counters.writeFailovers.Add(1)
	}
}

// rollbackStored best-effort deletes every blob a failed write already
// stored, through the delete step like every other discard: an aborted
// PL3 upload has hundreds, a few calls per provider. RollbackDeletes
// counts the blobs, not the calls.
func (d *Distributor) rollbackStored(stored []storedShard) {
	d.deleteBlobs(stored)
	d.counters.rollbackDeletes.Add(int64(len(stored)))
}

// runParallel invokes fn(0..n-1) with bounded parallelism through a
// fixed worker pool pulling indices from a shared counter: a handful of
// allocations per call regardless of n, instead of a goroutine funcval
// and semaphore slot per job.
func (d *Distributor) runParallel(n int, fn func(int)) {
	workers := d.parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
