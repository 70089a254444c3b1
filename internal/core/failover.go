package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/privacy"
)

// shardKind distinguishes the three blob types an upload stages.
type shardKind int

const (
	shardData shardKind = iota
	shardMirror
	shardParity
)

// stagedShard is one provider blob of a stripe an upload has planned,
// carrying back references into the stripe's staged rows (positions, not
// pointers — the staging loop appends, which reallocates) so a failover
// can re-home the shard and patch the metadata that will be committed.
type stagedShard struct {
	kind      shardKind
	chunkPos  int // index into the job's chunks (data and mirror shards), -1 otherwise
	mirrorPos int // index into that chunk's Mirrors (mirror shards), -1 otherwise
	parityPos int // index into the stripe's Parity (parity shards), -1 otherwise
	provIdx   int
	vid       string
	payload   []byte
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

// relatedProviders collects the providers that shard i of one stripe
// must not share: the stripe's other data and parity shards (the
// distinct-provider RAID constraint), and — for data and mirror shards —
// the other copies of the same chunk. Mirrors of *other* chunks in the
// stripe are not excluded, matching the staging policy.
func relatedProviders(shards []stagedShard, i int) map[int]bool {
	s := &shards[i]
	ex := make(map[int]bool)
	for j := range shards {
		if j == i {
			continue
		}
		t := &shards[j]
		stripeMates := s.kind != shardMirror && t.kind != shardMirror
		sameChunk := s.chunkPos >= 0 && t.chunkPos == s.chunkPos &&
			(s.kind == shardMirror || t.kind == shardMirror)
		if stripeMates || sameChunk {
			ex[t.provIdx] = true
		}
	}
	return ex
}

// restage moves one blob staged on t off provider from: a fresh placement
// outside exclude and failed, a fresh virtual id, and the ticket's
// staging moved with it — one short hold of d.mu, the only lock a write
// failover takes (placement and the VID allocator live under it). On
// error the ticket no longer counts the blob.
func (d *Distributor) restage(pl privacy.Level, from int, exclude, failed map[int]bool, t *writeTicket) (int, string, error) {
	ex := make(map[int]bool, len(exclude)+len(failed))
	for k := range exclude {
		ex[k] = true
	}
	for k := range failed {
		ex[k] = true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.unstageProviderLocked(t, from)
	prov, err := d.placeParityExcluding(pl, ex)
	if err != nil {
		return 0, "", err
	}
	vid := d.vids.Next()
	d.stageLocked(t, prov, vid)
	return prov, vid, nil
}

// rehomeFunc answers where a blob goes after provider from failed it:
// never onto a provider in failed, the ones that already failed this blob.
type rehomeFunc func(from int, failed map[int]bool) (prov int, vid string, err error)

// awayFrom is the rehomeFunc of a blob whose exclusions — stripe mates,
// its own mirrors — stay put while it ships: restage outside exclude.
func (d *Distributor) awayFrom(pl privacy.Level, exclude map[int]bool, t *writeTicket) rehomeFunc {
	return func(from int, failed map[int]bool) (int, string, error) {
		return d.restage(pl, from, exclude, failed, t)
	}
}

// rehomePut is the write-failover loop, the only one: it puts payload on
// provider prov under vid through the circuit-breaker gate, and when a
// put exhausts its transient retries or the circuit is open asks rehome
// for the blob's next home and tries there. Only when rehome has nowhere
// left does the write fail. Returns the provider and virtual id that
// finally stored the blob; the caller patches tables and stale copies at
// commit. Runs WITHOUT d.mu: the provider round trips are the slow part
// of every write, and holding the lock here would serialize all clients
// behind one slow provider.
func (d *Distributor) rehomePut(prov int, vid string, payload []byte, rehome rehomeFunc) (int, string, error) {
	var failed map[int]bool // allocated by the first failure: most puts have none
	for {
		err := d.gatedPut(prov, vid, payload)
		if err == nil {
			return prov, vid, nil
		}
		if failed == nil {
			failed = make(map[int]bool)
		}
		failed[prov] = true
		var perr error
		if prov, vid, perr = rehome(prov, failed); perr != nil {
			return 0, "", fmt.Errorf("write failover exhausted: %w (last put error: %v)", perr, err)
		}
		d.counters.writeFailovers.Add(1)
	}
}

// rollbackStored best-effort deletes every blob a failed write already
// stored (discardBlob: raw deletes, the put failure that triggered the
// rollback stays the live health signal). They fan out like every other
// bulk provider loop: an aborted PL3 upload has hundreds.
func (d *Distributor) rollbackStored(stored []storedShard) {
	d.runParallel(len(stored), func(i int) {
		d.discardBlob(stored[i])
		d.counters.rollbackDeletes.Add(1)
	})
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
