package core

import (
	"errors"
	"fmt"

	"repro/internal/provider"
	"repro/internal/raid"
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
// generation and drop the rows and counts atomically.
func (d *Distributor) RemoveFile(client, password, filename string) error {
	// ---- Plan ----
	d.mu.Lock()
	c, fe, err := d.authFile(client, password, filename)
	if err != nil {
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
		dels = append(dels, storedShard{entry.CPIndex, entry.VirtualID})
		for _, m := range entry.Mirrors {
			dels = append(dels, storedShard{m.CPIndex, m.VirtualID})
		}
		if entry.SnapVID != "" && entry.SPIndex >= 0 {
			dels = append(dels, storedShard{entry.SPIndex, entry.SnapVID})
		}
		if !seenStripe[entry.StripeID] {
			seenStripe[entry.StripeID] = true
			st := &d.stripes[entry.StripeID]
			for _, ps := range st.Parity {
				dels = append(dels, storedShard{ps.CPIndex, ps.VirtualID})
			}
		}
	}
	d.mu.Unlock()

	// ---- Ship ----
	jobs := make([]func() error, len(dels))
	for i, s := range dels {
		jobs[i] = d.deleteJob(s.provIdx, s.vid)
	}
	if err := d.fanOut(jobs); err != nil {
		return fmt.Errorf("core: remove incomplete: %w", err)
	}

	// ---- Commit ----
	d.mu.Lock()
	defer d.mu.Unlock()
	feNow, ok := c.Files[filename]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchFile, filename)
	}
	if feNow != fe || feNow.Gen != fileGen {
		return fmt.Errorf("%w: %s changed during removal", ErrConflict, filename)
	}
	rec := &walRecord{
		Op: "remove_file", Client: client, Filename: filename,
		FileGen: fe.Gen + 1, ClientGen: c.Gen + 1, Gen: d.gen + 1,
	}
	if err := d.logAppendLocked(rec); err != nil {
		// Tables untouched: same "remove incomplete" semantics as a failed
		// delete — the already-deleted blobs surface as unavailable until
		// the remove is retried.
		return fmt.Errorf("core: remove incomplete: %w", err)
	}
	remaining := 0
	for _, idx := range fe.ChunkIdx {
		if idx < 0 {
			continue
		}
		remaining++
		entry := &d.chunks[idx]
		d.provCount[entry.CPIndex]--
		for _, m := range entry.Mirrors {
			d.provCount[m.CPIndex]--
		}
		if entry.SnapVID != "" && entry.SPIndex >= 0 {
			d.provCount[entry.SPIndex]--
		}
		entry.tombstone()
	}
	for sid := range seenStripe {
		st := &d.stripes[sid]
		for _, ps := range st.Parity {
			d.provCount[ps.CPIndex]--
		}
		st.Parity = nil
		st.Members = nil
	}
	c.Count -= remaining
	delete(c.Files, filename)
	for serial := range fe.ChunkIdx {
		d.cache.remove(cacheKey{fid: fe.FID, serial: serial, gen: fileGen})
	}
	fe.Gen++
	c.Gen++
	d.gen++
	d.counters.removes.Add(1)
	d.maybeCheckpointLocked()
	return nil
}

// RemoveChunk deletes one chunk — the paper's remove_chunk(client name,
// password, filename, sl no.). The chunk's stripe parity is re-encoded
// over the surviving members so RAID recovery keeps working for them.
//
// Plan (under d.mu): resolve the chunk, snapshot fetch plans for the
// survivors while the full stripe is still consistent, and stage fresh
// virtual ids for the replacement parity. Ship (no lock): fetch the
// survivors, write the new parity, then delete the chunk's blobs and the
// stale parity. Commit (under d.mu): generation check, then tombstone
// the row and swap the stripe's membership and parity atomically.
func (d *Distributor) RemoveChunk(client, password, filename string, serial int) error {
	// ---- Plan ----
	d.mu.Lock()
	entry, err := d.lookupChunk(client, password, filename, serial)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	c := d.clients[client]
	fe := c.Files[filename]
	fileGen := fe.Gen
	pl := entry.PL
	st := &d.stripes[entry.StripeID]
	stripeID := entry.StripeID
	level := st.Level
	oldParity := append([]parityShard(nil), st.Parity...)

	type survivor struct {
		chunkIdx int
		plan     fetchPlan
		provIdx  int
		name     string
		serial   int
	}
	var survivors []survivor
	for _, cidx := range st.Members {
		m := &d.chunks[cidx]
		if m.VirtualID == entry.VirtualID {
			continue
		}
		survivors = append(survivors, survivor{
			chunkIdx: cidx, plan: d.planFetch(m), provIdx: m.CPIndex,
			name: m.Filename, serial: m.Serial,
		})
	}

	dels := []storedShard{{entry.CPIndex, entry.VirtualID}}
	for _, m := range entry.Mirrors {
		dels = append(dels, storedShard{m.CPIndex, m.VirtualID})
	}
	if entry.SnapVID != "" && entry.SPIndex >= 0 {
		dels = append(dels, storedShard{entry.SPIndex, entry.SnapVID})
	}
	for _, ps := range oldParity {
		dels = append(dels, storedShard{ps.CPIndex, ps.VirtualID})
	}

	// Stage replacement parity on freshly placed providers.
	t := d.newTicketLocked()
	reencode := len(survivors) > 0 && level.ParityShards() > 0
	var newParity []parityShard
	if reencode {
		exclude := map[int]bool{}
		for _, s := range survivors {
			exclude[s.provIdx] = true
		}
		for pi := 0; pi < level.ParityShards(); pi++ {
			provIdx, err := d.placeParityExcluding(pl, exclude)
			if err != nil {
				d.releaseTicketLocked(t)
				d.mu.Unlock()
				return err
			}
			exclude[provIdx] = true
			vid := d.vids.Next()
			newParity = append(newParity, parityShard{VirtualID: vid, CPIndex: provIdx})
			d.stageLocked(t, provIdx, vid)
		}
	}
	d.mu.Unlock()

	// ---- Ship ----
	var stored []storedShard
	abort := func(err error) error {
		d.rollbackStored(stored)
		d.releaseTicket(t)
		return err
	}

	// Gather surviving member payloads (reconstructing any unreachable
	// one) while the full stripe still exists on the providers.
	shardLen := 1
	sibPayloads := make([][]byte, len(survivors))
	if reencode {
		jobs := make([]func() error, len(survivors))
		for i := range survivors {
			i := i
			jobs[i] = func() error {
				data, err := d.fetchPayloadPlan(&survivors[i].plan)
				if err != nil {
					return fmt.Errorf("core: cannot preserve stripe member %s#%d during removal: %w", survivors[i].name, survivors[i].serial, err)
				}
				sibPayloads[i] = data
				return nil
			}
		}
		if err := d.fanOut(jobs); err != nil {
			return abort(err)
		}
		for _, p := range sibPayloads {
			if len(p) > shardLen {
				shardLen = len(p)
			}
		}
		padded := make([][]byte, len(sibPayloads))
		for i, p := range sibPayloads {
			pad := make([]byte, shardLen)
			copy(pad, p)
			padded[i] = pad
		}
		stripe, err := raid.Encode(level, padded)
		if err != nil {
			return abort(fmt.Errorf("core: re-encoding stripe after removal: %w", err))
		}
		for pi := range newParity {
			pex := map[int]bool{}
			for _, s := range survivors {
				pex[s.provIdx] = true
			}
			for pj := range newParity {
				if pj != pi {
					pex[newParity[pj].CPIndex] = true
				}
			}
			pProv, pVID, err := d.rehomePut(pl, newParity[pi].CPIndex, newParity[pi].VirtualID, stripe.Shards[len(survivors)+pi], pex, t)
			if err != nil {
				return abort(fmt.Errorf("core: writing re-encoded parity: %w", err))
			}
			newParity[pi] = parityShard{VirtualID: pVID, CPIndex: pProv}
			stored = append(stored, storedShard{pProv, pVID})
		}
	}

	// Delete the chunk, its mirrors, its snapshot, and stale parity.
	jobs := make([]func() error, len(dels))
	for i, s := range dels {
		jobs[i] = d.deleteJob(s.provIdx, s.vid)
	}
	if err := d.fanOut(jobs); err != nil {
		return abort(fmt.Errorf("core: remove incomplete: %w", err))
	}

	// ---- Commit ----
	d.mu.Lock()
	feNow, ok := c.Files[filename]
	if !ok || feNow != fe || feNow.Gen != fileGen {
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.rollbackStored(stored)
		return fmt.Errorf("%w: %s#%d changed during removal", ErrConflict, filename, serial)
	}
	newMembers := make([]int, 0, len(survivors))
	for _, s := range survivors {
		newMembers = append(newMembers, s.chunkIdx)
	}
	rec := &walRecord{
		Op: "remove_chunk", Client: client, Filename: filename, Serial: serial,
		StripeID: stripeID, Members: newMembers, ShardLen: shardLen, Parity: newParity,
		FileGen: fe.Gen + 1, Gen: d.gen + 1,
	}
	if err := d.logAppendLocked(rec); err != nil {
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.rollbackStored(stored)
		return fmt.Errorf("core: remove incomplete: %w", err)
	}
	e := &d.chunks[fe.ChunkIdx[serial]]
	d.provCount[e.CPIndex]--
	for _, m := range e.Mirrors {
		d.provCount[m.CPIndex]--
	}
	if e.SnapVID != "" && e.SPIndex >= 0 {
		d.provCount[e.SPIndex]--
	}
	for _, ps := range oldParity {
		d.provCount[ps.CPIndex]--
	}
	d.commitTicketLocked(t)
	stNow := &d.stripes[stripeID]
	stNow.Members = newMembers
	stNow.ShardLen = shardLen
	stNow.Parity = newParity
	e.tombstone()
	fe.ChunkIdx[serial] = -1
	c.Count--
	d.cache.remove(cacheKey{fid: fe.FID, serial: serial, gen: fileGen})
	fe.Gen++
	d.gen++
	d.counters.removes.Add(1)
	d.maybeCheckpointLocked()
	d.mu.Unlock()
	return nil
}

// deleteJob builds a fan-out job removing one key from one provider;
// missing keys are tolerated so removals are idempotent. The outcome
// feeds health accounting (a not-found reply counts as a success there
// too — the provider answered).
func (d *Distributor) deleteJob(provIdx int, vid string) func() error {
	return func() error {
		err := d.providerOp(provIdx, func(p provider.Provider) error {
			return p.Delete(vid)
		})
		if err != nil && !errors.Is(err, provider.ErrNotFound) {
			return err
		}
		return nil
	}
}
