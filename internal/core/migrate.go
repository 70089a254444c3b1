package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/privacy"
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
// Each shard moves through its own plan → copy → commit cycle (moveShard):
// the source and target are chosen under d.mu, the provider round-trips
// run without it, and the commit re-checks the owning file's generation —
// a shard mutated concurrently is skipped (its copy dropped) and picked
// up again by the next sweep.
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
// provIdx: per chunk row its primary, mirrors and snapshot, then every
// stripe's parity. It returns how many shards it touched (moved or
// skipped on conflict) so the caller knows whether another sweep is
// needed.
func (d *Distributor) evacuatePass(provIdx int, rep *DecommissionReport) (int, error) {
	dirty := 0
	move := func(s shardSlot) error {
		n, err := d.moveShard(s, provIdx, rep)
		dirty += n
		return err
	}
	for i := 0; ; i++ {
		d.mu.Lock()
		if i >= len(d.chunks) {
			d.mu.Unlock()
			break
		}
		mirrors := len(d.chunks[i].Mirrors)
		d.mu.Unlock()
		if err := move(shardSlot{kind: BlobChunk, idx: i}); err != nil {
			return dirty, err
		}
		for mi := 0; mi < mirrors; mi++ {
			if err := move(shardSlot{kind: BlobMirror, idx: i, sub: mi}); err != nil {
				return dirty, err
			}
		}
		if err := move(shardSlot{kind: BlobSnapshot, idx: i}); err != nil {
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
			if err := move(shardSlot{kind: BlobParity, idx: si, sub: pi}); err != nil {
				return dirty, err
			}
		}
	}
	return dirty, nil
}

// moved counts one relocated shard of the given kind.
func (r *DecommissionReport) moved(kind BlobKind) {
	switch kind {
	case BlobChunk:
		r.ChunksMoved++
	case BlobMirror:
		r.MirrorsMoved++
	case BlobSnapshot:
		r.SnapshotsMoved++
	case BlobParity:
		r.ParityMoved++
	}
}

// moveShard relocates the shard in slot s off provIdx. Returns 1 if it
// moved (or conflicted and must be re-checked), 0 if the slot holds
// nothing on provIdx.
//
// Plan (under d.mu): read the slot, note the generation of the file that
// owns it, and take two copies of its stripe's rows: the stripe as it
// stands, which the payload is read through, and the one the move ships
// into. The payload comes from the read ladder for a chunk or mirror, the
// blob itself for a snapshot, a re-encode over the members for parity
// (cheaper than reading, and correct even if the departing provider is
// already dark). The slot is homed in the second copy, away from the
// departing provider and from what avoid says. Copy (no lock): shipShard,
// the departing provider counting as one that failed the blob; the first
// put keeps the shard's virtual id (a pure move), failover hops re-key
// like any other write.
// Commit (under d.mu): if the file moved on or the slot no longer holds
// what was copied, drop the copy; otherwise one move_<kind> record
// repoints the slot.
func (d *Distributor) moveShard(s shardSlot, provIdx int, rep *DecommissionReport) (int, error) {
	// ---- Plan ----
	d.mu.Lock()
	prov, vidNow, err := d.cell(s)
	if err != nil || *prov != provIdx || *vidNow == "" {
		d.mu.Unlock()
		return 0, nil
	}
	vid := *vidNow
	at := s // the slot in the move's private copy of its stripe's rows
	var st *stripeEntry
	if s.kind == BlobParity {
		st, at.idx = &d.stripes[s.idx], 0
	} else {
		st = &d.stripes[d.chunks[s.idx].StripeID]
		at.idx = slices.Index(st.Members, s.idx)
	}
	if len(st.Members) == 0 {
		d.mu.Unlock()
		return 0, nil
	}
	// Every member of a stripe belongs to one file, at one PL.
	owner := &d.chunks[st.Members[0]]
	client, filename := owner.Client, owner.Filename
	pre := d.stripeRowsLocked(st, -1, owner.PL, nil)
	var fetch func() ([]byte, error)
	var pooled [][]byte
	defer func() { releaseBuffers(pooled) }()
	switch s.kind {
	case BlobChunk, BlobMirror:
		fetch = func() ([]byte, error) {
			res, err := d.readMember(pre, at.idx)
			return res.payload, err
		}
	case BlobSnapshot:
		sp, _ := d.fleet.At(provIdx) // Decommission checked provIdx
		fetch = func() ([]byte, error) { return sp.Get(vid) }
	case BlobParity:
		fetch = func() ([]byte, error) {
			payloads, err := d.fetchMembers(pre, -1)
			if err != nil {
				return nil, err
			}
			parity, err := d.encodeParity(pre.stripes[0].Level, payloads, pre.stripes[0].ShardLen, &pooled)
			if err != nil {
				return nil, err
			}
			return parity[s.sub], nil
		}
	}
	t := d.newTicketLocked()
	rows := d.stripeRowsLocked(st, -1, owner.PL, t)
	departing := map[int]bool{provIdx: true}
	placeErr := d.homeLocked(rows, at, departing)
	if errors.Is(placeErr, ErrPlacement) && s.kind == BlobChunk {
		// A fleet too small to keep a chunk off its stripe mates: relax to a
		// stripe of one, which still keeps it off its own mirrors.
		rows.stripes[0] = stripeEntry{Members: []int{at.idx}}
		placeErr = d.homeLocked(rows, at, departing)
	}
	// A snapshot has no second source: when the departing provider cannot
	// produce it the reference is dropped, target or no target, so its
	// placement verdict waits for the read.
	if placeErr != nil && s.kind != BlobSnapshot {
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		return 0, placeErr
	}
	fe := d.clients[client].Files[filename]
	gen := fe.Gen
	d.mu.Unlock()

	// ---- Copy ----
	rec := &walRecord{
		Op: "move_" + string(s.kind), Client: client, Filename: filename,
		TableIdx: s.idx, SubIdx: s.sub, FileGen: gen + 1,
	}
	payload, err := fetch()
	var dst storedShard
	switch {
	case err != nil && s.kind == BlobSnapshot:
		// Unreadable pre-state: drop the snapshot under the same
		// generation rule as a move.
		rec.Op = "drop_snapshot"
	case err != nil:
		d.releaseTicket(t)
		return 0, fmt.Errorf("core: decommission: %s of %s/%s unreadable: %w", s.kind, client, filename, err)
	case placeErr != nil:
		d.releaseTicket(t)
		return 0, placeErr
	default:
		if dst, err = d.shipShard(rows, stagedShard{slot: at, payload: payload}, departing); err != nil {
			d.releaseTicket(t)
			return 0, fmt.Errorf("core: decommission: rehoming %s: %w", s.kind, err)
		}
	}
	rec.NewProv, rec.NewVID = dst.provIdx, dst.vid
	copied := dst.vid != ""

	// ---- Commit ----
	d.mu.Lock()
	prov, vidNow, err = d.cell(s)
	if d.fileChangedLocked(client, filename, fe, gen) || err != nil || *prov != provIdx || *vidNow != vid {
		// Lost the race: the copy goes — unless the slot ended up
		// referencing exactly it, in which case the copy IS the live blob.
		live := err == nil && *prov == dst.provIdx && *vidNow == dst.vid
		d.releaseTicketLocked(t)
		d.mu.Unlock()
		if copied && !live {
			d.deleteBlobs([]storedShard{dst})
		}
		return 1, nil
	}
	rec.Gen = d.gen + 1
	err = d.commitLocked(rec, t)
	d.mu.Unlock()
	if err != nil {
		if copied {
			d.deleteBlobs([]storedShard{dst})
		}
		return 0, fmt.Errorf("core: decommission: %w", err)
	}
	// The source goes. A snapshot dropped unread goes too: the read failure
	// may be transient while the blob still exists, and the dropped
	// reference would leak an orphan no audit can attribute.
	d.deleteBlobs([]storedShard{{provIdx, vid}})
	if copied {
		rep.moved(s.kind)
	}
	return 1, nil
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
		d.chunks[i].eachBlob(func(_ BlobKind, at storedShard) { referenced[at.vid] = true })
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
	if gc && d.following {
		// A follower's tables trail its primary's: what it does not
		// reference yet may be the primary's newest blobs.
		d.mu.Unlock()
		return AuditReport{}, errFollower
	}
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
		if p.Probe() { // no lock held: a fresh answer may be waited for
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

	dels := make([]storedShard, len(confirmed))
	for i, cd := range confirmed {
		rep.Orphans[cd.name] = append(rep.Orphans[cd.name], cd.key)
		dels[i] = storedShard{cd.provIdx, cd.key}
	}
	if gc {
		for _, err := range d.deleteBlobs(dels) {
			if err == nil {
				rep.Deleted++
			}
		}
	}
	return rep, nil
}
