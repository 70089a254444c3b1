package simcheck

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/raid"
)

// chunkLoc is the oracle's physical index for one logical chunk: where
// its primary and mirrors live and which stripe (if any) covers it.
type chunkLoc struct {
	primary   int
	mirrors   []int
	stripeIdx int // index into view.Stripes, -1 when unstriped
}

// checkpoint runs the oracle over every shard: it drives each to a
// quiescent point and checks the durability invariants against the
// shard's model:
//
//  1. every committed file is fully readable, byte-for-byte;
//  2. no blob sits on a provider whose PL is below the blob's, and no
//     two copies of one chunk (primary, mirrors) sit on one provider;
//  3. generation counters are monotonic and stripes are internally
//     consistent (parity recomputed from raw member bytes matches the
//     stored parity — cross-generation mixing cannot pass this);
//  4. the only provider-resident keys outside the tables are deletes
//     the injector made fail — rollback leaves no unexplained orphans;
//  5. losing any f providers (f = the stripe's parity tolerance) still
//     reconstructs every expected-readable chunk;
//  6. every follower holds the primary's log end and tables and serves
//     every file on its own, and a file is known to its owner only.
//
// A shard's open topology window heals and its faults are suspended for
// the duration; provider windows keep expiring by op count so a blackout
// can span a checkpoint without wedging it.
func (r *runner) checkpoint(opIdx int) *Violation {
	r.res.Checkpoints++
	for _, sh := range r.shards {
		if v := r.checkShard(opIdx, sh); v != nil {
			return v
		}
	}
	return nil
}

func (r *runner) checkShard(opIdx int, sh *shard) *Violation {
	if sh.down >= 0 {
		if v := r.heal(opIdx, sh); v != nil {
			return v
		}
	}
	sh.inj.suspend()
	defer sh.inj.resume()
	d := sh.members[0]
	// Let every breaker cooldown elapse so probes can close circuits.
	r.tick(20 * time.Millisecond)

	// Re-drive interrupted removes to convergence: a failed RemoveFile
	// may have left the file live, half-deleted, or fully removed.
	for _, f := range sh.m.limboFiles() {
		var err error
		for attempt := 0; attempt < 4; attempt++ {
			err = d.RemoveFile(f.client, password, f.name)
			if err == nil || errors.Is(err, core.ErrNoSuchFile) {
				err = nil
				break
			}
		}
		if err != nil {
			return r.violation(opIdx, "remove-convergence",
				fmt.Sprintf("RemoveFile %s/%s cannot complete on a healthy fleet: %v", f.client, f.name, err))
		}
		r.tr.addf("check op=%d limbo-remove c=%s f=%s done", opIdx, f.client, f.name)
		sh.m.drop(f.client, f.name)
	}

	// Scrub on a healthy fleet must repair everything outstanding: the
	// at-rest rot injected after the previous checkpoint stayed within
	// each stripe's parity budget, so nothing may be unrepairable.
	srep, err := d.Scrub()
	if err != nil {
		return r.violation(opIdx, "scrub", fmt.Sprintf("Scrub on healthy fleet: %v", err))
	}
	r.res.Scrubs++
	r.tr.addf("check op=%d scrub checked=%d repaired=%d parity=%d/%d", opIdx,
		srep.ChunksChecked, srep.Repaired, srep.ParityRepaired, srep.ParityChecked)
	if srep.Unrepairable > 0 || srep.ParityUnrepairable > 0 {
		return r.violation(opIdx, "scrub-unrepairable",
			fmt.Sprintf("healthy-fleet scrub left %d chunks / %d parity shards unrepairable",
				srep.Unrepairable, srep.ParityUnrepairable))
	}

	view := core.StateOf(d)
	if !view.Quiescent {
		return r.violation(opIdx, "quiescence",
			"StateView reports open write tickets on an idle distributor (leaked ticket or reservation)")
	}

	// Invariant 3a: generation counters never move backwards.
	if view.Gen < sh.m.lastDistGen {
		return r.violation(opIdx, "generation-monotonic",
			fmt.Sprintf("distributor generation went backwards: %d -> %d", sh.m.lastDistGen, view.Gen))
	}
	newGens := make(map[uint64]uint64, len(view.Files))
	for _, fv := range view.Files {
		if last, ok := sh.m.lastGen[fv.FID]; ok && fv.Gen < last {
			return r.violation(opIdx, "generation-monotonic",
				fmt.Sprintf("file %s/%s (fid %d) generation went backwards: %d -> %d",
					fv.Client, fv.Filename, fv.FID, last, fv.Gen))
		}
		newGens[fv.FID] = fv.Gen
	}

	// The table's file set must equal the model's, chunk-for-chunk.
	files := sh.m.live()
	if len(view.Files) != len(files) {
		return r.violation(opIdx, "file-set",
			fmt.Sprintf("tables hold %d files, model holds %d", len(view.Files), len(files)))
	}
	for i, f := range files { // both sides sorted by (client, name)
		fv := view.Files[i]
		if fv.Client != f.client || fv.Filename != f.name {
			return r.violation(opIdx, "file-set",
				fmt.Sprintf("tables[%d] = %s/%s, model = %s/%s", i, fv.Client, fv.Filename, f.client, f.name))
		}
		if fv.Live != len(f.chunks) {
			return r.violation(opIdx, "file-set",
				fmt.Sprintf("%s/%s has %d live chunks, model has %d", f.client, f.name, fv.Live, len(f.chunks)))
		}
	}

	// Invariant 2 + presence: every committed blob exists on its
	// provider, at its recorded length, on a provider whose PL covers it;
	// and no two copies (primary, mirrors) of one chunk share a provider.
	type copyKey struct {
		client, filename string
		serial, prov     int
	}
	copies := make(map[copyKey]bool)
	for _, b := range view.Blobs {
		if b.ProvIdx < 0 || b.ProvIdx >= len(r.provPL) {
			return r.violation(opIdx, "placement",
				fmt.Sprintf("blob %s on out-of-range provider %d", b.VID, b.ProvIdx))
		}
		if b.Kind == core.BlobChunk || b.Kind == core.BlobMirror {
			k := copyKey{b.Client, b.Filename, b.Serial, b.ProvIdx}
			if copies[k] {
				return r.violation(opIdx, "anti-affinity",
					fmt.Sprintf("two copies of %s/%s#%d on sp%02d (%s blob %s is one)",
						b.Client, b.Filename, b.Serial, b.ProvIdx, b.Kind, b.VID))
			}
			copies[k] = true
		}
		if r.provPL[b.ProvIdx] < b.PL {
			return r.violation(opIdx, "placement",
				fmt.Sprintf("%s blob %s (PL %d) of %s/%s placed on sp%02d (PL %d)",
					b.Kind, b.VID, b.PL, b.Client, b.Filename, b.ProvIdx, r.provPL[b.ProvIdx]))
		}
		p, err := sh.fleet.At(b.ProvIdx)
		if err != nil {
			return r.violation(opIdx, "placement", fmt.Sprintf("provider %d: %v", b.ProvIdx, err))
		}
		got, err := p.Get(b.VID)
		if err != nil {
			return r.violation(opIdx, "blob-presence",
				fmt.Sprintf("%s blob %s of %s/%s missing from sp%02d: %v",
					b.Kind, b.VID, b.Client, b.Filename, b.ProvIdx, err))
		}
		if b.PayloadLen > 0 && len(got) != b.PayloadLen {
			return r.violation(opIdx, "blob-presence",
				fmt.Sprintf("%s blob %s holds %d bytes, tables say %d", b.Kind, b.VID, len(got), b.PayloadLen))
		}
	}

	// Invariant 3b: recompute every stripe's parity from the raw member
	// bytes the providers hold right now. Members and parity from
	// different generations cannot XOR out clean.
	if v := r.checkStripes(opIdx, sh, &view); v != nil {
		return v
	}

	// Invariant 1: every committed byte readable, through the full read
	// path (cache, mislead stripping, mirrors, reconstruction).
	for _, f := range files {
		want := f.bytes()
		got, err := d.GetFile(f.client, password, f.name)
		if err != nil {
			return r.violation(opIdx, "readability",
				fmt.Sprintf("GetFile %s/%s on healthy fleet: %v", f.client, f.name, err))
		}
		if !bytes.Equal(got, want) {
			return r.violation(opIdx, "readability",
				fmt.Sprintf("GetFile %s/%s returned %d bytes differing from the model (%d expected)",
					f.client, f.name, len(got), len(want)))
		}
		if len(want) > 0 {
			off := r.rng.Intn(len(want))
			max := len(want) - off
			if max > 2048 {
				max = 2048
			}
			n := 1 + r.rng.Intn(max)
			rgot, err := d.GetRange(f.client, password, f.name, off, n)
			if err != nil || !bytes.Equal(rgot, want[off:off+n]) {
				return r.violation(opIdx, "readability",
					fmt.Sprintf("GetRange %s/%s [%d,%d) on healthy fleet: err=%v", f.client, f.name, off, off+n, err))
			}
		}
	}

	// Invariant 4: audit first, GC second. Every orphan must be a delete
	// the injector failed; anything else is a rollback/bookkeeping bug.
	audit, err := core.AuditOrphans(d, false)
	if err != nil {
		return r.violation(opIdx, "orphans", fmt.Sprintf("AuditOrphans: %v", err))
	}
	provNames := make([]string, 0, len(audit.Orphans))
	for name := range audit.Orphans {
		provNames = append(provNames, name)
	}
	sort.Strings(provNames)
	orphanCount := 0
	for _, name := range provNames {
		keys := append([]string(nil), audit.Orphans[name]...)
		sort.Strings(keys)
		for _, key := range keys {
			orphanCount++
			if !sh.inj.allowedOrphan(key) {
				return r.violation(opIdx, "orphans",
					fmt.Sprintf("blob %s on %s is referenced by nothing and does not come from a failed delete; history: %v",
						key, name, sh.inj.keyHistory(key)))
			}
		}
	}
	if orphanCount > 0 {
		gcRep, err := core.AuditOrphans(d, true)
		if err != nil {
			return r.violation(opIdx, "orphans", fmt.Sprintf("AuditOrphans(gc): %v", err))
		}
		r.res.OrphansCollected += gcRep.Deleted
		r.tr.addf("check op=%d orphans=%d collected=%d", opIdx, orphanCount, gcRep.Deleted)
		clean, err := core.AuditOrphans(d, false)
		if err != nil {
			return r.violation(opIdx, "orphans", fmt.Sprintf("AuditOrphans recheck: %v", err))
		}
		for name, keys := range clean.Orphans {
			if len(keys) > 0 {
				return r.violation(opIdx, "orphans",
					fmt.Sprintf("%d orphans on %s survived a healthy-fleet GC", len(keys), name))
			}
		}
	}

	// Invariant 5: f-loss drills. Partition f providers, then every
	// chunk whose redundancy should survive that loss must still read
	// back exactly.
	for f := 1; f <= 2; f++ {
		if v := r.drill(opIdx, sh, &view, files, f); v != nil {
			return v
		}
	}

	// Invariant 6: followers match the primary, files their owner.
	if v := r.checkReplicas(opIdx, sh, files); v != nil {
		return v
	}

	// Arm the next window: inject at-rest rot within parity budgets.
	if opIdx+1 < r.cfg.Ops {
		r.injectRot(opIdx, sh, &view)
	}

	sh.m.lastGen = newGens
	sh.m.lastDistGen = view.Gen
	r.tr.addf("check op=%d ok files=%d blobs=%d stripes=%d", opIdx, len(files), len(view.Blobs), len(view.Stripes))
	return nil
}

// checkStripes recomputes parity from raw provider bytes for every
// stripe and compares against the stored parity blobs.
func (r *runner) checkStripes(opIdx int, sh *shard, view *core.StateView) *Violation {
	for si, st := range view.Stripes {
		if len(st.Members) == 0 || len(st.Parity) == 0 {
			continue
		}
		if len(st.Parity) != st.Level.ParityShards() {
			return r.violation(opIdx, "stripe-consistency",
				fmt.Sprintf("stripe %d (%v) has %d parity shards, want %d", si, st.Level, len(st.Parity), st.Level.ParityShards()))
		}
		data := make([][]byte, len(st.Members))
		for mi, mb := range st.Members {
			p, err := sh.fleet.At(mb.ProvIdx)
			if err != nil {
				return r.violation(opIdx, "stripe-consistency", fmt.Sprintf("stripe %d member provider: %v", si, err))
			}
			raw, err := p.Get(mb.VID)
			if err != nil {
				return r.violation(opIdx, "stripe-consistency",
					fmt.Sprintf("stripe %d member %s unreadable: %v", si, mb.VID, err))
			}
			padded := make([]byte, st.ShardLen)
			copy(padded, raw)
			data[mi] = padded
		}
		expected := make([][]byte, len(st.Parity))
		for pi := range expected {
			expected[pi] = make([]byte, st.ShardLen)
		}
		if err := raid.ParityInto(st.Level, data, expected); err != nil {
			return r.violation(opIdx, "stripe-consistency", fmt.Sprintf("stripe %d recompute: %v", si, err))
		}
		for pi, pb := range st.Parity {
			p, err := sh.fleet.At(pb.ProvIdx)
			if err != nil {
				return r.violation(opIdx, "stripe-consistency", fmt.Sprintf("stripe %d parity provider: %v", si, err))
			}
			raw, err := p.Get(pb.VID)
			if err != nil {
				return r.violation(opIdx, "stripe-consistency",
					fmt.Sprintf("stripe %d parity %s unreadable: %v", si, pb.VID, err))
			}
			if !bytes.Equal(raw, expected[pi]) {
				return r.violation(opIdx, "stripe-consistency",
					fmt.Sprintf("stripe %d (%v, %s/%s) parity shard %d does not match parity recomputed from raw members — cross-generation mixing or stale parity",
						si, st.Level, pb.Client, pb.Filename, pi))
			}
		}
	}
	return nil
}

// checkReplicas holds sh's followers to its primary and its files to
// their owner: after a sync every follower is at the primary's log end
// with deep-equal tables and reads every file byte-exact on its own, and
// no other shard knows a file sh owns.
func (r *runner) checkReplicas(opIdx int, sh *shard, files []*modelFile) *Violation {
	if v := r.sync(opIdx, sh); v != nil {
		return v
	}
	prim := sh.members[0]
	next, view := prim.Health().WAL.NextLSN, core.StateOf(prim)
	for f, d := range sh.members[1:] {
		rep, err := d.Follow(prim)
		if err != nil || rep.Records != 0 || rep.Resynced || rep.LSN != next {
			return r.violation(opIdx, "replication-lag",
				fmt.Sprintf("%s follower %d not at the primary's log end %d after a sync: %+v, %v", sh.name, f+1, next, rep, err))
		}
		if fview := core.StateOf(d); !reflect.DeepEqual(fview, view) {
			return r.violation(opIdx, "replica-divergence",
				fmt.Sprintf("%s follower %d tables differ from the primary's (gen %d vs %d, %d vs %d blobs)",
					sh.name, f+1, fview.Gen, view.Gen, len(fview.Blobs), len(view.Blobs)))
		}
		for _, mf := range files {
			got, err := d.GetFile(mf.client, password, mf.name)
			if err != nil || !bytes.Equal(got, mf.bytes()) {
				return r.violation(opIdx, "follower-read",
					fmt.Sprintf("%s follower %d read of %s/%s: err=%v bytes=%d want=%d",
						sh.name, f+1, mf.client, mf.name, err, len(got), len(mf.bytes())))
			}
		}
	}
	if len(r.shards) == 1 {
		return nil
	}
	for _, mf := range files {
		for _, other := range r.shards {
			if _, err := other.members[0].ChunkCount(mf.client, password, mf.name); (err == nil) != (other == sh) {
				return r.violation(opIdx, "shard-isolation",
					fmt.Sprintf("%s/%s, owned by %s, on %s: ChunkCount err=%v", mf.client, mf.name, sh.name, other.name, err))
			}
		}
	}
	return nil
}

// chunkIndex builds the oracle's chunk → placement map from a view.
func chunkIndex(view *core.StateView) map[string]*chunkLoc {
	idx := make(map[string]*chunkLoc)
	key := func(client, name string, serial int) string {
		return fmt.Sprintf("%s/%s#%d", client, name, serial)
	}
	byVID := make(map[string]int)
	for si, st := range view.Stripes {
		for _, mb := range st.Members {
			byVID[mb.VID] = si
		}
	}
	for _, b := range view.Blobs {
		switch b.Kind {
		case core.BlobChunk:
			k := key(b.Client, b.Filename, b.Serial)
			loc := idx[k]
			if loc == nil {
				loc = &chunkLoc{stripeIdx: -1}
				idx[k] = loc
			}
			loc.primary = b.ProvIdx
			if si, ok := byVID[b.VID]; ok {
				loc.stripeIdx = si
			}
		case core.BlobMirror:
			k := key(b.Client, b.Filename, b.Serial)
			loc := idx[k]
			if loc == nil {
				loc = &chunkLoc{stripeIdx: -1}
				idx[k] = loc
			}
			loc.mirrors = append(loc.mirrors, b.ProvIdx)
		}
	}
	return idx
}

// drill partitions f random providers and asserts the exact readability
// the committed placement promises: a chunk must survive if its primary
// or any mirror is up, or if its stripe lost no more shards than its
// parity tolerance. Reads that succeed must match the model either way.
func (r *runner) drill(opIdx int, sh *shard, view *core.StateView, files []*modelFile, f int) *Violation {
	if len(files) == 0 || f >= len(sh.hooked) {
		return nil
	}
	down := make(map[int]bool, f)
	for len(down) < f {
		down[r.rng.Intn(len(sh.hooked))] = true
	}
	downList := make([]int, 0, f)
	for p := range down {
		downList = append(downList, p)
	}
	sort.Ints(downList)
	r.tr.addf("check op=%d drill f=%d down=%v", opIdx, f, downList)

	idx := chunkIndex(view)
	for _, p := range downList {
		sh.hooked[p].SetPartitioned(true)
	}
	defer func() {
		for _, p := range downList {
			sh.hooked[p].SetPartitioned(false)
		}
		// Heal the breakers the drill tripped before the window resumes.
		r.tick(20 * time.Millisecond)
	}()

	for _, mf := range files {
		expected := true
		for serial := range mf.chunks {
			loc := idx[fmt.Sprintf("%s/%s#%d", mf.client, mf.name, serial)]
			if loc == nil {
				return r.violation(opIdx, "f-loss",
					fmt.Sprintf("chunk %s/%s#%d has no committed placement", mf.client, mf.name, serial))
			}
			ok := !down[loc.primary]
			for _, m := range loc.mirrors {
				ok = ok || !down[m]
			}
			if !ok && loc.stripeIdx >= 0 {
				st := view.Stripes[loc.stripeIdx]
				losses := 0
				for _, mb := range st.Members {
					if down[mb.ProvIdx] {
						losses++
					}
				}
				for _, pb := range st.Parity {
					if down[pb.ProvIdx] {
						losses++
					}
				}
				ok = losses <= st.Level.ParityShards()
			}
			if !ok {
				expected = false
				break
			}
		}
		got, err := sh.members[0].GetFile(mf.client, password, mf.name)
		r.res.DrillReads++
		if err == nil && !bytes.Equal(got, mf.bytes()) {
			return r.violation(opIdx, "f-loss",
				fmt.Sprintf("GetFile %s/%s under %d-provider loss %v served wrong bytes", mf.client, mf.name, f, downList))
		}
		if expected && err != nil {
			return r.violation(opIdx, "f-loss",
				fmt.Sprintf("GetFile %s/%s should survive losing providers %v (placement promises it) but failed: %v",
					mf.client, mf.name, downList, err))
		}
	}
	return nil
}

// injectRot corrupts a few blobs at rest for the next window, budgeted
// so scrub can always repair: at most one rot per stripe (members and
// parity share the budget), and unstriped chunks are rotted only when
// a mirror can restore them.
func (r *runner) injectRot(opIdx int, sh *shard, view *core.StateView) {
	if r.cfg.RotPerCheckpoint <= 0 || len(view.Blobs) == 0 {
		return
	}
	byVID := make(map[string]int)
	hasParity := make(map[int]bool)
	for si, st := range view.Stripes {
		hasParity[si] = len(st.Parity) > 0
		for _, mb := range st.Members {
			byVID[mb.VID] = si
		}
		for _, pb := range st.Parity {
			byVID[pb.VID] = si
		}
	}
	mirrorCount := make(map[string]int)
	for _, b := range view.Blobs {
		if b.Kind == core.BlobMirror {
			mirrorCount[fmt.Sprintf("%s/%s#%d", b.Client, b.Filename, b.Serial)]++
		}
	}
	var candidates []core.BlobView
	for _, b := range view.Blobs {
		if (b.Kind == core.BlobChunk || b.Kind == core.BlobParity) && b.PayloadLen > 0 {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return
	}
	rotted := make(map[int]int)    // stripe index -> rots this round
	rottedVID := map[string]bool{} // never rot the same blob twice
	for n := 0; n < r.cfg.RotPerCheckpoint; n++ {
		b := candidates[r.rng.Intn(len(candidates))]
		if rottedVID[b.VID] {
			continue
		}
		// A rot is only safe when something can restore the blob. Stripe
		// reconstruction covers it when the stripe carries parity AND this
		// is the stripe's first rot this round — one rot per stripe, not
		// ParityShards, because a rotted parity blob is indistinguishable
		// from a healthy one at fetch time (only chunks carry end-to-end
		// checksums), so repairing a rotted member may deterministically
		// pick the rotted parity and fail while the parity recompute needs
		// the rotted member. NoParity uploads still build (parity-less)
		// stripes, which reconstruct nothing. Everything else needs a
		// mirror.
		si, striped := byVID[b.VID]
		if !(striped && hasParity[si] && rotted[si] == 0) {
			if b.Kind != core.BlobChunk ||
				mirrorCount[fmt.Sprintf("%s/%s#%d", b.Client, b.Filename, b.Serial)] == 0 {
				continue // nothing could restore it
			}
		}
		p, err := sh.fleet.At(b.ProvIdx)
		if err != nil {
			continue
		}
		raw, err := p.Get(b.VID)
		if err != nil || len(raw) == 0 {
			continue
		}
		for i := range raw {
			raw[i] ^= 0x3C
		}
		if err := p.Put(b.VID, raw); err != nil {
			continue
		}
		if striped {
			rotted[si]++
		}
		rottedVID[b.VID] = true
		r.tr.addf("check op=%d rot kind=%s vid=%s p=%d len=%d", opIdx, b.Kind, b.VID, b.ProvIdx, len(raw))
	}
}
