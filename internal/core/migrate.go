package core

import (
	"fmt"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// DecommissionReport summarizes a provider evacuation.
type DecommissionReport struct {
	Provider       string
	ChunksMoved    int
	MirrorsMoved   int
	ParityMoved    int
	SnapshotsMoved int
}

// decommissionPasses bounds the re-scan loop: writes racing with an
// evacuation can land new shards on the departing provider (it only
// becomes invisible to placement once the caller marks it down), so the
// evacuation sweeps until a pass finds nothing left.
const decommissionPasses = 5

// Decommission evacuates every shard (chunks, mirrors, parity, snapshots)
// from the provider at fleet index provIdx onto other eligible providers —
// the recovery path for the paper's "cloud provider going out of
// business" scenario. Payloads are read from the departing provider if it
// is still up, reconstructed from RAID peers otherwise. The provider
// remains in the fleet (indices are stable) but holds no data and, since
// load-based placement sees its count at zero, callers should also mark
// it down via SetOutage to exclude it from future placement.
//
// Each shard moves through its own plan → copy → commit cycle: the fetch
// plan and target are chosen under d.mu, the provider round-trips run
// without it, and the commit re-checks the owning file's generation — a
// shard mutated concurrently is skipped (its copy dropped) and picked up
// again by the next sweep.
func (d *Distributor) Decommission(provIdx int) (DecommissionReport, error) {
	d.mu.Lock()
	old, err := d.fleet.At(provIdx)
	if err != nil {
		d.mu.Unlock()
		return DecommissionReport{}, err
	}
	rep := DecommissionReport{Provider: old.Info().Name}
	d.mu.Unlock()

	for pass := 0; pass < decommissionPasses; pass++ {
		dirty, err := d.evacuatePass(provIdx, &rep)
		if err != nil {
			return rep, err
		}
		if dirty == 0 {
			return rep, nil
		}
	}
	return rep, fmt.Errorf("%w: provider %d keeps acquiring shards during decommission", ErrUnavailable, provIdx)
}

// evacuatePass sweeps the tables once, moving every shard currently on
// provIdx. It returns how many shards it touched (moved or skipped on
// conflict) so the caller knows whether another sweep is needed.
func (d *Distributor) evacuatePass(provIdx int, rep *DecommissionReport) (int, error) {
	dirty := 0
	for i := 0; ; i++ {
		d.mu.Lock()
		if i >= len(d.chunks) {
			d.mu.Unlock()
			break
		}
		mirrors := len(d.chunks[i].Mirrors)
		d.mu.Unlock()
		n, err := d.moveChunk(i, provIdx, rep)
		dirty += n
		if err != nil {
			return dirty, err
		}
		for mi := 0; mi < mirrors; mi++ {
			n, err := d.moveMirror(i, mi, provIdx, rep)
			dirty += n
			if err != nil {
				return dirty, err
			}
		}
		n, err = d.moveSnapshot(i, provIdx, rep)
		dirty += n
		if err != nil {
			return dirty, err
		}
	}
	for si := 0; ; si++ {
		d.mu.Lock()
		if si >= len(d.stripes) {
			d.mu.Unlock()
			break
		}
		parity := len(d.stripes[si].Parity)
		d.mu.Unlock()
		for pi := 0; pi < parity; pi++ {
			n, err := d.moveParity(si, pi, provIdx, rep)
			dirty += n
			if err != nil {
				return dirty, err
			}
		}
	}
	return dirty, nil
}

// dropCopied best-effort deletes a relocation copy whose commit lost the
// generation race — unless the committed row ended up referencing exactly
// that (provider, vid) pair, in which case the copy IS the live blob.
func (d *Distributor) dropCopied(provIdx int, vid string, live bool) {
	if live {
		return
	}
	if p, err := d.fleet.At(provIdx); err == nil {
		_ = p.Delete(vid)
	}
}

// moveChunk relocates the primary copy of chunk i off provIdx. Returns 1
// if it moved (or conflicted and must be re-checked), 0 if the chunk was
// not on provIdx.
func (d *Distributor) moveChunk(i, provIdx int, rep *DecommissionReport) (int, error) {
	// Plan.
	d.mu.Lock()
	if i >= len(d.chunks) || d.chunks[i].CPIndex != provIdx {
		d.mu.Unlock()
		return 0, nil
	}
	e := &d.chunks[i]
	fe := d.clients[e.Client].Files[e.Filename]
	gen := fe.Gen
	vid := e.VirtualID
	pl := e.PL
	plan := d.planFetch(e)
	newIdx, exclude, err := d.relocationTarget(e, provIdx)
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	t := d.newTicketLocked()
	d.stageLocked(t, newIdx, vid)
	d.mu.Unlock()

	// Copy. The first put keeps the chunk's virtual id (a pure move);
	// failover hops re-key like any other write.
	payload, err := d.fetchPayloadPlan(&plan)
	if err != nil {
		d.releaseTicket(t)
		return 0, fmt.Errorf("core: decommission: chunk %s/%s#%d unreadable: %w",
			plan.entry.Client, plan.entry.Filename, plan.entry.Serial, err)
	}
	newProv, newVID, err := d.rehomePut(pl, newIdx, vid, payload, exclude, t)
	if err != nil {
		d.releaseTicket(t)
		return 0, fmt.Errorf("core: decommission: rehoming chunk: %w", err)
	}

	// Commit.
	d.mu.Lock()
	feNow, ok := d.clients[plan.entry.Client].Files[plan.entry.Filename]
	if !ok || feNow != fe || feNow.Gen != gen ||
		d.chunks[i].VirtualID != vid || d.chunks[i].CPIndex != provIdx {
		live := i < len(d.chunks) && d.chunks[i].VirtualID == newVID && d.chunks[i].CPIndex == newProv
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.dropCopied(newProv, newVID, live)
		return 1, nil
	}
	rec := &walRecord{
		Op: "move_chunk", Client: plan.entry.Client, Filename: plan.entry.Filename,
		TableIdx: i, NewProv: newProv, NewVID: newVID,
		FileGen: gen + 1, Gen: d.gen + 1,
	}
	if err := d.logAppendLocked(rec); err != nil {
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.dropCopied(newProv, newVID, false)
		return 0, fmt.Errorf("core: decommission: %w", err)
	}
	d.commitTicketLocked(t)
	d.provCount[provIdx]--
	d.chunks[i].CPIndex = newProv
	d.chunks[i].VirtualID = newVID
	feNow.Gen++
	d.gen++
	d.maybeCheckpointLocked()
	d.mu.Unlock()
	_ = d.deleteJob(provIdx, vid)()
	rep.ChunksMoved++
	return 1, nil
}

// moveMirror relocates mirror mi of chunk i off provIdx.
func (d *Distributor) moveMirror(i, mi, provIdx int, rep *DecommissionReport) (int, error) {
	d.mu.Lock()
	if i >= len(d.chunks) || d.chunks[i].CPIndex < 0 ||
		mi >= len(d.chunks[i].Mirrors) || d.chunks[i].Mirrors[mi].CPIndex != provIdx {
		d.mu.Unlock()
		return 0, nil
	}
	e := &d.chunks[i]
	fe := d.clients[e.Client].Files[e.Filename]
	gen := fe.Gen
	vid := e.Mirrors[mi].VirtualID
	pl := e.PL
	plan := d.planFetch(e)
	newIdx, exclude, err := d.relocationTarget(e, provIdx)
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	t := d.newTicketLocked()
	d.stageLocked(t, newIdx, vid)
	d.mu.Unlock()

	payload, err := d.fetchPayloadPlan(&plan)
	if err != nil {
		d.releaseTicket(t)
		return 0, fmt.Errorf("core: decommission: mirror source unreadable: %w", err)
	}
	newProv, newVID, err := d.rehomePut(pl, newIdx, vid, payload, exclude, t)
	if err != nil {
		d.releaseTicket(t)
		return 0, fmt.Errorf("core: decommission: rehoming mirror: %w", err)
	}

	d.mu.Lock()
	feNow, ok := d.clients[plan.entry.Client].Files[plan.entry.Filename]
	if !ok || feNow != fe || feNow.Gen != gen ||
		mi >= len(d.chunks[i].Mirrors) ||
		d.chunks[i].Mirrors[mi].VirtualID != vid || d.chunks[i].Mirrors[mi].CPIndex != provIdx {
		live := i < len(d.chunks) && mi < len(d.chunks[i].Mirrors) &&
			d.chunks[i].Mirrors[mi].VirtualID == newVID && d.chunks[i].Mirrors[mi].CPIndex == newProv
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.dropCopied(newProv, newVID, live)
		return 1, nil
	}
	rec := &walRecord{
		Op: "move_mirror", Client: plan.entry.Client, Filename: plan.entry.Filename,
		TableIdx: i, SubIdx: mi, NewProv: newProv, NewVID: newVID,
		FileGen: gen + 1, Gen: d.gen + 1,
	}
	if err := d.logAppendLocked(rec); err != nil {
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.dropCopied(newProv, newVID, false)
		return 0, fmt.Errorf("core: decommission: %w", err)
	}
	d.commitTicketLocked(t)
	d.provCount[provIdx]--
	d.chunks[i].Mirrors[mi] = mirrorRef{VirtualID: newVID, CPIndex: newProv}
	feNow.Gen++
	d.gen++
	d.maybeCheckpointLocked()
	d.mu.Unlock()
	_ = d.deleteJob(provIdx, vid)()
	rep.MirrorsMoved++
	return 1, nil
}

// moveSnapshot relocates chunk i's snapshot off provIdx. A snapshot that
// only exists on the departing provider and is unreadable is dropped
// rather than failing the whole evacuation.
func (d *Distributor) moveSnapshot(i, provIdx int, rep *DecommissionReport) (int, error) {
	d.mu.Lock()
	if i >= len(d.chunks) || d.chunks[i].SPIndex != provIdx || d.chunks[i].SnapVID == "" {
		d.mu.Unlock()
		return 0, nil
	}
	e := &d.chunks[i]
	fe := d.clients[e.Client].Files[e.Filename]
	gen := fe.Gen
	client, filename := e.Client, e.Filename
	vid := e.SnapVID
	pl := e.PL
	cpIdx := e.CPIndex
	d.mu.Unlock()

	sp, err := d.fleet.At(provIdx)
	if err != nil {
		return 0, err
	}
	snap, err := sp.Get(vid)
	if err != nil {
		// Unreadable pre-state: drop the snapshot under the same
		// generation rule as a move.
		d.mu.Lock()
		feNow, ok := d.clients[client].Files[filename]
		if !ok || feNow != fe || feNow.Gen != gen ||
			d.chunks[i].SnapVID != vid || d.chunks[i].SPIndex != provIdx {
			d.mu.Unlock()
			return 1, nil
		}
		rec := &walRecord{
			Op: "drop_snapshot", Client: client, Filename: filename,
			TableIdx: i, FileGen: gen + 1, Gen: d.gen + 1,
		}
		if err := d.logAppendLocked(rec); err != nil {
			d.mu.Unlock()
			return 0, fmt.Errorf("core: decommission: %w", err)
		}
		d.chunks[i].SPIndex = -1
		d.chunks[i].SnapVID = ""
		d.provCount[provIdx]--
		feNow.Gen++
		d.gen++
		d.maybeCheckpointLocked()
		d.mu.Unlock()
		// The read failure may be transient while the blob still exists;
		// without a best-effort delete the dropped reference leaks an
		// orphan no audit can attribute.
		_ = sp.Delete(vid)
		return 1, nil
	}

	d.mu.Lock()
	exclude := map[int]bool{provIdx: true, cpIdx: true}
	newIdx, err := d.placeParityExcluding(pl, exclude)
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	t := d.newTicketLocked()
	d.stageLocked(t, newIdx, vid)
	d.mu.Unlock()

	newProv, newVID, err := d.rehomePut(pl, newIdx, vid, snap, exclude, t)
	if err != nil {
		d.releaseTicket(t)
		return 0, fmt.Errorf("core: decommission: rehoming snapshot: %w", err)
	}

	d.mu.Lock()
	feNow, ok := d.clients[client].Files[filename]
	if !ok || feNow != fe || feNow.Gen != gen ||
		d.chunks[i].SnapVID != vid || d.chunks[i].SPIndex != provIdx {
		live := i < len(d.chunks) && d.chunks[i].SnapVID == newVID && d.chunks[i].SPIndex == newProv
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.dropCopied(newProv, newVID, live)
		return 1, nil
	}
	rec := &walRecord{
		Op: "move_snapshot", Client: client, Filename: filename,
		TableIdx: i, NewProv: newProv, NewVID: newVID,
		FileGen: gen + 1, Gen: d.gen + 1,
	}
	if err := d.logAppendLocked(rec); err != nil {
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.dropCopied(newProv, newVID, false)
		return 0, fmt.Errorf("core: decommission: %w", err)
	}
	d.commitTicketLocked(t)
	d.provCount[provIdx]--
	d.chunks[i].SPIndex = newProv
	d.chunks[i].SnapVID = newVID
	feNow.Gen++
	d.gen++
	d.maybeCheckpointLocked()
	d.mu.Unlock()
	_ = d.deleteJob(provIdx, vid)()
	rep.SnapshotsMoved++
	return 1, nil
}

// moveParity relocates parity shard pi of stripe si off provIdx,
// recomputing its contents from the members (cheaper than reading, and
// correct even if the departing provider is already dark).
func (d *Distributor) moveParity(si, pi, provIdx int, rep *DecommissionReport) (int, error) {
	d.mu.Lock()
	if si >= len(d.stripes) {
		d.mu.Unlock()
		return 0, nil
	}
	st := &d.stripes[si]
	if pi >= len(st.Parity) || st.Parity[pi].CPIndex != provIdx || len(st.Members) == 0 {
		d.mu.Unlock()
		return 0, nil
	}
	owner := &d.chunks[st.Members[0]]
	fe := d.clients[owner.Client].Files[owner.Filename]
	gen := fe.Gen
	client, filename := owner.Client, owner.Filename
	vid := st.Parity[pi].VirtualID
	pl := d.stripePL(st)
	level := st.Level
	shardLen := st.ShardLen
	nData := len(st.Members)
	plans := make([]fetchPlan, nData)
	exclude := map[int]bool{provIdx: true}
	for mi, ci := range st.Members {
		plans[mi] = d.planFetch(&d.chunks[ci])
		exclude[d.chunks[ci].CPIndex] = true
	}
	for pj := range st.Parity {
		if pj != pi && st.Parity[pj].CPIndex != provIdx {
			exclude[st.Parity[pj].CPIndex] = true
		}
	}
	newIdx, err := d.placeParityExcluding(pl, exclude)
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	t := d.newTicketLocked()
	d.stageLocked(t, newIdx, vid)
	d.mu.Unlock()

	padded := make([][]byte, nData)
	jobs := make([]func() error, nData)
	for mi := range plans {
		mi := mi
		jobs[mi] = func() error {
			payload, err := d.fetchPayloadPlan(&plans[mi])
			if err != nil {
				return fmt.Errorf("core: re-encode: reading member %d: %w", mi, err)
			}
			pad := make([]byte, shardLen)
			copy(pad, payload)
			padded[mi] = pad
			return nil
		}
	}
	if err := d.fanOut(jobs); err != nil {
		d.releaseTicket(t)
		return 0, err
	}
	stripe, err := raid.Encode(level, padded)
	if err != nil {
		d.releaseTicket(t)
		return 0, fmt.Errorf("core: re-encode: %w", err)
	}
	newProv, newVID, err := d.rehomePut(pl, newIdx, vid, stripe.Shards[nData+pi], exclude, t)
	if err != nil {
		d.releaseTicket(t)
		return 0, fmt.Errorf("core: decommission: rehoming parity: %w", err)
	}

	d.mu.Lock()
	feNow, ok := d.clients[client].Files[filename]
	stale := !ok || feNow != fe || feNow.Gen != gen ||
		si >= len(d.stripes) || pi >= len(d.stripes[si].Parity) ||
		d.stripes[si].Parity[pi].VirtualID != vid || d.stripes[si].Parity[pi].CPIndex != provIdx
	if stale {
		live := si < len(d.stripes) && pi < len(d.stripes[si].Parity) &&
			d.stripes[si].Parity[pi].VirtualID == newVID && d.stripes[si].Parity[pi].CPIndex == newProv
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.dropCopied(newProv, newVID, live)
		return 1, nil
	}
	rec := &walRecord{
		Op: "move_parity", Client: client, Filename: filename,
		TableIdx: si, SubIdx: pi, NewProv: newProv, NewVID: newVID,
		FileGen: gen + 1, Gen: d.gen + 1,
	}
	if err := d.logAppendLocked(rec); err != nil {
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		d.dropCopied(newProv, newVID, false)
		return 0, fmt.Errorf("core: decommission: %w", err)
	}
	d.commitTicketLocked(t)
	d.provCount[provIdx]--
	d.stripes[si].Parity[pi] = parityShard{VirtualID: newVID, CPIndex: newProv}
	feNow.Gen++
	d.gen++
	d.maybeCheckpointLocked()
	d.mu.Unlock()
	_ = d.deleteJob(provIdx, vid)()
	rep.ParityMoved++
	return 1, nil
}

// relocationTarget picks a new home for a chunk off oldIdx, avoiding its
// stripe-mates and mirrors so the placement invariants survive. It also
// returns the exclusion set actually in force, so a failover away from
// the chosen target respects the same constraints.
func (d *Distributor) relocationTarget(entry *chunkEntry, oldIdx int) (int, map[int]bool, error) {
	exclude := map[int]bool{oldIdx: true}
	st := &d.stripes[entry.StripeID]
	for _, ci := range st.Members {
		if d.chunks[ci].CPIndex >= 0 {
			exclude[d.chunks[ci].CPIndex] = true
		}
	}
	for _, ps := range st.Parity {
		exclude[ps.CPIndex] = true
	}
	for _, m := range entry.Mirrors {
		exclude[m.CPIndex] = true
	}
	idx, err := d.placeParityExcluding(entry.PL, exclude)
	if err != nil {
		// Relax: allow sharing with mirrors/parity if the fleet is small,
		// but never the departing provider itself.
		exclude = map[int]bool{oldIdx: true}
		idx, err = d.placeParityExcluding(entry.PL, exclude)
	}
	return idx, exclude, err
}

// stripePL returns the privacy level of a stripe's members (uniform per
// file by construction); defaults to the highest level for safety when
// the stripe is empty.
func (d *Distributor) stripePL(st *stripeEntry) privacy.Level {
	if len(st.Members) > 0 {
		return d.chunks[st.Members[0]].PL
	}
	return privacy.High
}

// AuditReport lists provider-resident objects the tables no longer
// reference — the residue of interrupted removals.
type AuditReport struct {
	// Orphans[providerName] lists unreferenced keys found there.
	Orphans map[string][]string
	Deleted int
}

// referencedLocked builds the set of every virtual id the committed
// tables reference, plus the ids staged by in-flight writes — a blob
// that is shipped but not yet committed must never look like an orphan.
// Callers hold d.mu.
func (d *Distributor) referencedLocked() map[string]bool {
	referenced := make(map[string]bool)
	for i := range d.chunks {
		c := &d.chunks[i]
		if c.CPIndex < 0 {
			continue
		}
		referenced[c.VirtualID] = true
		for _, m := range c.Mirrors {
			referenced[m.VirtualID] = true
		}
		if c.SnapVID != "" {
			referenced[c.SnapVID] = true
		}
	}
	for _, st := range d.stripes {
		for _, ps := range st.Parity {
			referenced[ps.VirtualID] = true
		}
	}
	for vid := range d.inflight {
		referenced[vid] = true
	}
	return referenced
}

// AuditOrphans scans every provider for keys absent from the distributor's
// tables and, when gc is true, deletes them. Interrupted removals (e.g. a
// provider outage mid-RemoveFile) can leave such orphans behind; running
// the audit after recovery reconciles providers with the tables. The
// provider scans run without d.mu; candidates are re-validated against
// fresh table and in-flight state before anything is reported or deleted,
// so a write that commits mid-scan cannot lose blobs to the collector.
func (d *Distributor) AuditOrphans(gc bool) (AuditReport, error) {
	d.mu.Lock()
	referenced := d.referencedLocked()
	genAtScan := d.gen
	n := d.fleet.Len()
	d.mu.Unlock()

	rep := AuditReport{Orphans: map[string][]string{}}
	type candidate struct {
		provIdx int
		name    string
		key     string
	}
	var cands []candidate
	for i := 0; i < n; i++ {
		p, err := d.fleet.At(i)
		if err != nil {
			return rep, err
		}
		if provider.Probe(p) { // no lock held: a fresh answer may be waited for
			continue // unreachable; audit again after recovery
		}
		for _, key := range p.Keys() {
			if !referenced[key] {
				cands = append(cands, candidate{i, p.Info().Name, key})
			}
		}
	}

	d.mu.Lock()
	if d.gen != genAtScan {
		referenced = d.referencedLocked()
	} else {
		for vid := range d.inflight {
			referenced[vid] = true
		}
	}
	confirmed := cands[:0]
	for _, cd := range cands {
		if !referenced[cd.key] {
			confirmed = append(confirmed, cd)
		}
	}
	d.mu.Unlock()

	for _, cd := range confirmed {
		rep.Orphans[cd.name] = append(rep.Orphans[cd.name], cd.key)
		if gc {
			if p, err := d.fleet.At(cd.provIdx); err == nil {
				if err := p.Delete(cd.key); err == nil {
					rep.Deleted++
				}
			}
		}
	}
	return rep, nil
}
