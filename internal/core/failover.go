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

// stagedShard is one provider blob of an in-flight upload, carrying back
// references into the staged tables (positions, not pointers — the
// staging loop appends, which reallocates) so a failover can re-home the
// shard and patch the metadata that will be committed.
type stagedShard struct {
	kind      shardKind
	chunkPos  int // index into newChunks (data and mirror shards), -1 otherwise
	mirrorPos int // index into that chunk's Mirrors (mirror shards), -1 otherwise
	stripePos int // index into newStripes
	parityPos int // index into that stripe's Parity (parity shards), -1 otherwise
	provIdx   int
	vid       string
	payload   []byte
	failed    map[int]bool // providers that already failed this shard
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

// relatedProviders collects the providers that shard i must not share:
// the other data/parity shards of its stripe (distinct-provider RAID
// constraint), and — for data and mirror shards — the other copies of
// the same chunk. Mirrors of *other* chunks in the stripe are not
// excluded, matching the staging policy.
func relatedProviders(shards []stagedShard, i int) map[int]bool {
	s := &shards[i]
	ex := make(map[int]bool)
	for j := range shards {
		if j == i {
			continue
		}
		t := &shards[j]
		sameStripe := t.stripePos == s.stripePos &&
			s.kind != shardMirror && t.kind != shardMirror
		sameChunk := s.chunkPos >= 0 && t.chunkPos == s.chunkPos &&
			(s.kind == shardMirror || t.kind == shardMirror)
		if sameStripe || sameChunk {
			ex[t.provIdx] = true
		}
	}
	return ex
}

// shipStaged sends every staged shard to its provider with bounded
// fan-out, failing individual shards over to the next healthy eligible
// provider (fresh virtual id, staged tables and ticket patched) when a
// put exhausts its transient retries or hits an open circuit. Only when
// a shard runs out of eligible providers does the whole write fail. It
// always returns the blobs that reached a provider — on error too — so
// the caller can roll them back (and, for streaming uploads, fold them
// into a rollback list spanning many shipStaged calls) and leave no
// orphans. Runs WITHOUT d.mu: the provider round-trips are the slow
// part of every upload, and holding the lock here would serialize all
// clients behind one slow provider. Only the failover placement
// decisions re-acquire the lock briefly (the VID allocator and the
// pending-load accounting live under it). newChunks and newStripes are
// private to the calling request until its commit, so patching them
// here is race-free.
func (d *Distributor) shipStaged(pl privacy.Level, shards []stagedShard, newChunks []chunkEntry, newStripes []stripeEntry, t *writeTicket) ([]storedShard, error) {
	var stored []storedShard
	pending := make([]int, len(shards))
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		jobs := make([]func() error, len(pending))
		for k, si := range pending {
			s := &shards[si]
			provIdx, vid, payload := s.provIdx, s.vid, s.payload
			jobs[k] = func() error { return d.gatedPut(provIdx, vid, payload) }
		}
		errs := d.fanOutEach(jobs)
		// Record every success of this round before handling any failure:
		// a failover-exhausted rollback must cover shards that landed
		// after the failed one in the same round.
		for k, si := range pending {
			if errs[k] == nil {
				stored = append(stored, storedShard{shards[si].provIdx, shards[si].vid})
			}
		}
		var next []int
		for k, si := range pending {
			s := &shards[si]
			if errs[k] == nil {
				continue
			}
			// Re-home the shard: never back onto a provider that already
			// failed it, never onto a provider holding a related shard.
			if s.failed == nil {
				s.failed = make(map[int]bool)
			}
			s.failed[s.provIdx] = true
			exclude := relatedProviders(shards, si)
			for p := range s.failed {
				exclude[p] = true
			}
			d.mu.Lock()
			d.unstageProviderLocked(t, s.provIdx)
			newProv, perr := d.placeParityExcluding(pl, exclude)
			if perr != nil {
				d.mu.Unlock()
				return stored, fmt.Errorf("shard failover exhausted: %w (last put error: %v)", perr, errs[k])
			}
			s.provIdx = newProv
			s.vid = d.vids.Next()
			d.stageLocked(t, newProv, s.vid)
			d.mu.Unlock()
			switch s.kind {
			case shardData:
				newChunks[s.chunkPos].CPIndex = newProv
				newChunks[s.chunkPos].VirtualID = s.vid
			case shardMirror:
				newChunks[s.chunkPos].Mirrors[s.mirrorPos] = mirrorRef{VirtualID: s.vid, CPIndex: newProv}
			case shardParity:
				newStripes[s.stripePos].Parity[s.parityPos] = parityShard{VirtualID: s.vid, CPIndex: newProv}
			}
			d.counters.writeFailovers.Add(1)
			next = append(next, si)
		}
		pending = next
	}
	return stored, nil
}

// rehomePut writes payload to provider firstProv under firstVID through
// the circuit-breaker gate, failing over to freshly placed providers
// (fresh virtual id each hop) when a put exhausts its retries or the
// circuit is open. exclude lists providers the blob must never land on
// — stripe mates, its own mirrors — beyond the ones that already failed
// it. Returns the provider and virtual id that finally stored the blob;
// the caller patches tables and stale copies at commit. Runs WITHOUT
// d.mu — only the failover placement re-acquires it. The blob must
// already be staged on t at (firstProv, firstVID); every hop moves the
// staging with it, so on error the ticket no longer counts this blob.
func (d *Distributor) rehomePut(pl privacy.Level, firstProv int, firstVID string, payload []byte, exclude map[int]bool, t *writeTicket) (int, string, error) {
	prov, vid := firstProv, firstVID
	failed := make(map[int]bool)
	for {
		err := d.gatedPut(prov, vid, payload)
		if err == nil {
			return prov, vid, nil
		}
		failed[prov] = true
		ex := make(map[int]bool, len(exclude)+len(failed))
		for k := range exclude {
			ex[k] = true
		}
		for k := range failed {
			ex[k] = true
		}
		d.mu.Lock()
		d.unstageProviderLocked(t, prov)
		newProv, perr := d.placeParityExcluding(pl, ex)
		if perr != nil {
			d.mu.Unlock()
			return 0, "", fmt.Errorf("write failover exhausted: %w (last put error: %v)", perr, err)
		}
		vid = d.vids.Next()
		d.stageLocked(t, newProv, vid)
		d.mu.Unlock()
		prov = newProv
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

// fanOutEach runs jobs with bounded parallelism and returns every job's
// error, index-aligned, so the caller can fail over just the shards that
// failed. With Parallelism 1 the semaphore serializes jobs in submission
// order, which deterministic fault-injection tests rely on.
func (d *Distributor) fanOutEach(jobs []func() error) []error {
	errs := make([]error, len(jobs))
	d.runParallel(len(jobs), func(i int) { errs[i] = jobs[i]() })
	return errs
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
