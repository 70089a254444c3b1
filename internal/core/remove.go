package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/provider"
)

// RemoveFile deletes a file: every data chunk and parity shard is removed
// from its provider and the tables are updated — the paper's
// remove_file(client name, password, filename).
//
// Plan (under d.mu): authenticate and collect every blob the file owns.
// Ship (no lock): fan the deletes out; a failed delete aborts with the
// tables untouched ("remove incomplete" — the blobs still referenced are
// still served, the already-deleted ones surface as unavailable until
// the remove is retried). Commit (under d.mu): re-check the file's
// generation and commit one remove_file record that drops the rows and
// counts atomically.
func (d *Distributor) RemoveFile(client, password, filename string) error {
	// ---- Plan ----
	d.mu.Lock()
	c, fe, err := d.authFile(client, password, filename)
	if err = d.writeCheckLocked(err); err != nil {
		d.mu.Unlock()
		return err
	}
	fileGen := fe.Gen
	seenStripe := map[int]bool{}
	var dels []storedShard
	for _, idx := range fe.ChunkIdx {
		if idx < 0 {
			continue
		}
		entry := &d.chunks[idx]
		dels = blobsOf(dels, entry)
		if !seenStripe[entry.StripeID] {
			seenStripe[entry.StripeID] = true
			dels = parityBlobs(dels, d.stripes[entry.StripeID].Parity)
		}
	}
	d.mu.Unlock()

	// ---- Ship ----
	if err := joinDistinct(d.deleteBlobs(dels)); err != nil {
		return fmt.Errorf("core: remove incomplete: %w", err)
	}

	// ---- Commit ----
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := c.Files[filename]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchFile, filename)
	}
	if d.fileChangedLocked(client, filename, fe, fileGen) {
		return fmt.Errorf("%w: %s changed during removal", ErrConflict, filename)
	}
	rec := &walRecord{
		Op: "remove_file", Client: client, Filename: filename,
		FileGen: fileGen + 1, ClientGen: c.Gen + 1, Gen: d.gen + 1,
	}
	if err := d.commitLocked(rec, nil); err != nil {
		// Tables untouched: same "remove incomplete" semantics as a failed
		// delete — the already-deleted blobs surface as unavailable until
		// the remove is retried.
		return fmt.Errorf("core: remove incomplete: %w", err)
	}
	for serial := range fe.ChunkIdx {
		d.cache.remove(cacheKey{fid: fe.FID, serial: serial, gen: fileGen})
	}
	d.counters.removes.Add(1)
	return nil
}

// RemoveChunk deletes one chunk — the paper's remove_chunk(client name,
// password, filename, sl no.). The chunk's stripe parity is re-encoded
// over the surviving members so RAID recovery keeps working for them.
//
// Plan (under d.mu): resolve the chunk and take two copies of its
// stripe's rows — the stripe as it stands, which the survivors are read
// through while the full stripe is still consistent, and the survivors
// alone, in which the replacement parity is staged under fresh virtual
// ids. Ship (no lock): fetch the survivors, write the new parity, then
// delete the chunk's blobs and the stale parity. Commit (under d.mu):
// generation check, then one remove_chunk record tombstones the row and
// swaps the stripe's membership and parity atomically.
func (d *Distributor) RemoveChunk(client, password, filename string, serial int) error {
	// ---- Plan ----
	d.mu.Lock()
	entry, err := d.lookupChunk(client, password, filename, serial)
	if err = d.writeCheckLocked(err); err != nil {
		d.mu.Unlock()
		return err
	}
	fe := d.clients[client].Files[filename]
	fileGen := fe.Gen
	entryIdx := fe.ChunkIdx[serial]
	pl := entry.PL
	stripeID := entry.StripeID
	st := &d.stripes[stripeID]
	level := st.Level
	self := slices.Index(st.Members, entryIdx)
	pre := d.stripeRowsLocked(st, -1, pl, nil)
	survivors := slices.DeleteFunc(slices.Clone(st.Members), func(cidx int) bool { return cidx == entryIdx })
	dels := parityBlobs(blobsOf(nil, entry), st.Parity)

	// Stage replacement parity on freshly placed providers, in the
	// stripe's rows as they will stand: the survivors and the new parity.
	t := d.newTicketLocked()
	rows := d.stripeRowsLocked(st, entryIdx, pl, t)
	rows.stripes[0].Parity = nil
	var shards []stagedShard
	if len(survivors) > 0 {
		for pi := 0; pi < level.ParityShards(); pi++ {
			rows.stripes[0].Parity = append(rows.stripes[0].Parity, parityShard{VirtualID: d.vids.Next(), CPIndex: -1})
			s := shardSlot{kind: BlobParity, sub: pi}
			if err := d.homeLocked(rows, s, nil); err != nil {
				d.releaseTicketLocked(t)
				d.mu.Unlock()
				return err
			}
			shards = append(shards, stagedShard{slot: s})
		}
	}
	d.mu.Unlock()

	// ---- Ship ----
	var pooled [][]byte
	defer func() { releaseBuffers(pooled) }()
	var stored []storedShard
	abort := func(err error) error {
		d.rollbackStored(stored)
		d.releaseTicket(t)
		return err
	}

	// Re-encode over the surviving members (reconstructing any unreachable
	// one) while the full stripe still exists on the providers.
	shardLen := 1
	if len(shards) > 0 {
		payloads, err := d.fetchMembers(pre, self)
		if err != nil {
			return abort(err)
		}
		shardLen = stripeShardLen(payloads)
		parityBufs, err := d.encodeParity(level, payloads, shardLen, &pooled)
		if err != nil {
			return abort(err)
		}
		for i := range shards {
			shards[i].payload = parityBufs[i]
		}
		if err := d.shipEach(rows, shards, &stored); err != nil {
			return abort(err)
		}
	}

	// Delete the chunk, its mirrors, its snapshot, and stale parity.
	if err := joinDistinct(d.deleteBlobs(dels)); err != nil {
		return abort(fmt.Errorf("core: remove incomplete: %w", err))
	}

	// ---- Commit ----
	d.mu.Lock()
	if d.fileChangedLocked(client, filename, fe, fileGen) {
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.rollbackStored(stored)
		return fmt.Errorf("%w: %s#%d changed during removal", ErrConflict, filename, serial)
	}
	rec := &walRecord{
		Op: "remove_chunk", Client: client, Filename: filename, Serial: serial,
		StripeID: stripeID, Members: survivors, ShardLen: shardLen, Parity: rows.stripes[0].Parity,
		FileGen: fileGen + 1, Gen: d.gen + 1,
	}
	if err := d.commitLocked(rec, t); err != nil {
		d.mu.Unlock()
		d.rollbackStored(stored)
		return fmt.Errorf("core: remove incomplete: %w", err)
	}
	d.cache.remove(cacheKey{fid: fe.FID, serial: serial, gen: fileGen})
	d.counters.removes.Add(1)
	d.mu.Unlock()
	return nil
}

// deleteBlobs is the delete step, the one way the distributor removes
// blobs from providers: a removed file's or chunk's, an update's
// superseded generation, a failed write's rollback, a relocation's
// source and its lost copies, the orphan audit's collection. It groups
// dels by provider into calls of at most bulkGetBlobs keys
// (planBulkCalls, the read step's planner) and runs them Parallelism
// wide. errs is index-aligned with dels; a key its provider no longer has
// counts as deleted, so every remove can be retried.
func (d *Distributor) deleteBlobs(dels []storedShard) (errs []error) {
	errs = make([]error, len(dels))
	calls := d.planBulkCalls(len(dels), func(i int) (int, int) { return dels[i].provIdx, 0 })
	d.runParallel(len(calls), func(k int) { d.bulkDelete(dels, &calls[k], errs) })
	return errs
}

// bulkDelete makes one call of the delete step and records each key's
// outcome in errs. Keys that fail with the providers' transient fault are
// sent again, as withTransientRetry resends a single operation. Like
// bulkGet's, the call is one health sample — a success if the provider
// answered for any key — and, answered, one latency sample of elapsed ÷
// keys.
func (d *Distributor) bulkDelete(dels []storedShard, c *bulkCall, errs []error) {
	p, _ := d.fleet.At(c.prov) // every stored blob's provider is in the fleet
	d.counters.bulkDeletes.Add(1)
	d.counters.bulkDeleteBlobs.Add(int64(len(c.items)))
	start := time.Now()
	keys := make([]string, 0, len(c.items))
	for attempt, pending := 1, c.items; len(pending) > 0; attempt++ {
		keys = keys[:0]
		for _, i := range pending {
			keys = append(keys, dels[i].vid)
		}
		var again []int
		for j, err := range provider.DeleteMany(p, keys) {
			i := pending[j]
			switch {
			case errors.Is(err, provider.ErrNotFound):
				err = nil
			case errors.Is(err, provider.ErrInjected) && attempt < transientRetries:
				again = append(again, i)
			}
			errs[i] = err
		}
		d.counters.transientRetries.Add(int64(len(again)))
		pending = again
	}
	answered := slices.ContainsFunc(c.items, func(i int) bool { return errs[i] == nil })
	d.health.Record(c.prov, answered)
	if answered {
		d.health.RecordLatency(c.prov, time.Since(start)/time.Duration(len(c.items)))
	}
}
