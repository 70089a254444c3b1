package core

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/cryptofrag"
	"repro/internal/mislead"
	"repro/internal/provider"
	"repro/internal/raid"
)

// GetChunk serves one chunk to a client holding a sufficiently privileged
// password — the paper's get_chunk(client name, password, filename,
// sl no.). If the chunk's provider is unreachable the distributor
// transparently reconstructs the chunk from the stripe's surviving shards.
func (d *Distributor) GetChunk(client, password, filename string, serial int) ([]byte, error) {
	d.mu.RLock()
	entry, err := d.lookupChunk(client, password, filename, serial)
	if err != nil {
		d.mu.RUnlock()
		return nil, err
	}
	d.counters.chunkReads.Add(1)
	fe := d.clients[client].Files[filename]
	key := cacheKey{fid: fe.FID, serial: serial, gen: fe.Gen}
	if data, ok := d.cache.get(key); ok {
		d.mu.RUnlock()
		return data, nil
	}
	plan := d.planFetch(entry)
	d.mu.RUnlock()
	// The provider round-trips happen outside d.mu so one slow or dark
	// provider cannot stall every other client request; concurrent misses
	// on the same chunk generation coalesce into one fetch.
	data, shared, err := d.flights.do(key, func() ([]byte, error) {
		return d.fetchChunkPlan(&plan)
	})
	if err != nil {
		return nil, err
	}
	if shared {
		return data, nil
	}
	// A reader that raced a commit inserts under the generation it planned
	// against; if that generation is already superseded the entry is
	// unreachable (no future reader computes the old key) and ages out.
	d.cache.put(key, data)
	return data, nil
}

// GetFile serves a whole file — the paper's get_file(client name,
// password, filename). Chunks are fetched with bounded parallelism
// ("This approach exploits the benefit of parallel query processing as
// various fragments can be accessed simultaneously"), the chunks of one
// provider sharing round trips (fetchPrimaries).
func (d *Distributor) GetFile(client, password, filename string) ([]byte, error) {
	d.mu.RLock()
	c, _, err := d.auth(client, password)
	if err != nil {
		d.mu.RUnlock()
		return nil, err
	}
	fe, ok := c.Files[filename]
	if !ok {
		d.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, filename)
	}
	if _, err := d.authorize(client, password, fe.PL); err != nil {
		d.mu.RUnlock()
		return nil, err
	}
	// Snapshot every chunk's fetch plan under the read lock, then do all
	// the provider I/O outside it. Chunks resident in the cache skip
	// planning entirely: their recovered bytes are copied out here (the
	// cache is generation-keyed, so fe.Gen under this lock pins a
	// consistent view) and the assembly below only places them.
	fid, fileGen := fe.FID, fe.Gen
	plans := make([]fetchPlan, len(fe.ChunkIdx))
	var cached [][]byte
	if d.cache != nil {
		cached = make([][]byte, len(fe.ChunkIdx))
	}
	for serial, idx := range fe.ChunkIdx {
		if idx < 0 {
			d.mu.RUnlock()
			return nil, fmt.Errorf("%w: serial %d was removed", ErrNoSuchChunk, serial)
		}
		if cached != nil {
			if data, ok := d.cache.get(cacheKey{fid: fid, serial: serial, gen: fileGen}); ok {
				cached[serial] = data
				continue
			}
		}
		plans[serial] = d.planFetch(&d.chunks[idx])
	}
	d.mu.RUnlock()

	// The whole file is assembled into one buffer sized from the chunk
	// entries' data lengths; every chunk is recovered directly into its
	// segment (offset = prefix sum of the preceding chunks), so no
	// per-chunk result slices or final concatenation exist.
	offs := make([]int, len(plans)+1)
	for serial := range plans {
		n := plans[serial].entry.DataLen
		if cached != nil && cached[serial] != nil {
			n = len(cached[serial]) // cache stores recovered bytes, len == DataLen
		}
		offs[serial+1] = offs[serial] + n
	}
	buf := make([]byte, offs[len(plans)])
	reads := make([]chunkRead, 0, len(plans))
	for serial := range plans {
		seg := buf[offs[serial]:offs[serial]:offs[serial+1]]
		if cached != nil && cached[serial] != nil {
			copy(seg[:cap(seg)], cached[serial])
			continue
		}
		reads = append(reads, chunkRead{plan: &plans[serial], dst: seg})
	}
	// Primaries first, a provider call per group of chunks; then only what
	// that missed climbs the per-chunk ladder, where concurrent misses on
	// the same chunk generation coalesce into one fetch.
	missed := d.fetchPrimaries(reads, false)
	if d.cache != nil {
		for i := range reads {
			if r := &reads[i]; r.ok {
				d.cache.put(cacheKey{fid: fid, serial: r.plan.entry.Serial, gen: fileGen}, r.res.recovered)
			}
		}
	}
	err = d.fanOutN(len(missed), func(k int) error {
		r := missed[k]
		key := cacheKey{fid: fid, serial: r.plan.entry.Serial, gen: fileGen}
		// The leader copies the verified recovery into its segment of the
		// shared buffer; coalesced readers get a private copy back and do
		// the same.
		data, shared, err := d.flights.do(key, func() ([]byte, error) {
			if err := d.climbRest(r, false); err != nil {
				return nil, err
			}
			d.cache.put(key, r.res.recovered)
			return r.res.recovered, nil
		})
		if err == nil && shared {
			r.place(fetchResult{recovered: data})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	d.counters.fileReads.Add(1)
	return buf, nil
}

// ChunkCount reports how many chunks a file has (what the distributor
// "notifies" the client of).
func (d *Distributor) ChunkCount(client, password, filename string) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, _, err := d.auth(client, password)
	if err != nil {
		return 0, err
	}
	fe, ok := c.Files[filename]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchFile, filename)
	}
	return len(fe.ChunkIdx), nil
}

// lookupChunk authenticates and resolves (client, filename, serial) to a
// chunk entry, enforcing password privilege against the chunk's privacy
// level. Callers hold d.mu (read or write mode — the lookup only reads).
func (d *Distributor) lookupChunk(client, password, filename string, serial int) (*chunkEntry, error) {
	c, _, err := d.auth(client, password)
	if err != nil {
		return nil, err
	}
	fe, ok := c.Files[filename]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, filename)
	}
	if serial < 0 || serial >= len(fe.ChunkIdx) {
		return nil, fmt.Errorf("%w: serial %d of %s (file has %d chunks)", ErrNoSuchChunk, serial, filename, len(fe.ChunkIdx))
	}
	idx := fe.ChunkIdx[serial]
	if idx < 0 {
		return nil, fmt.Errorf("%w: serial %d was removed", ErrNoSuchChunk, serial)
	}
	entry := &d.chunks[idx]
	if _, err := d.authorize(client, password, entry.PL); err != nil {
		return nil, err
	}
	return entry, nil
}

// fetchPlan is an immutable snapshot of everything needed to serve one
// chunk read — the chunk entry plus its stripe geometry — taken under
// d.mu so the provider round-trips can happen without the lock.
type fetchPlan struct {
	entry       chunkEntry // deep enough copy: Mirrors slice is cloned
	level       raid.Level
	shardLen    int
	dataShards  int
	parityCount int
	targetSlot  int        // this chunk's slot in the stripe, -1 if unknown
	siblings    []shardRef // surviving members and parity, slot-addressed
}

// shardRef locates one stripe shard for reconstruction.
type shardRef struct {
	slot       int
	provIdx    int
	vid        string
	payloadLen int
}

// planFetch snapshots entry and its stripe — a pure read, so RLock-held
// callers (the retrieval paths) and exclusive-lock callers (scrub,
// migration) both qualify. Callers hold d.mu in either mode.
func (d *Distributor) planFetch(entry *chunkEntry) fetchPlan {
	plan := fetchPlan{entry: *entry, targetSlot: -1}
	plan.entry.Mirrors = append([]mirrorRef(nil), entry.Mirrors...)
	st := &d.stripes[entry.StripeID]
	plan.level = st.Level
	plan.shardLen = st.ShardLen
	plan.dataShards = len(st.Members)
	plan.parityCount = len(st.Parity)
	plan.siblings = make([]shardRef, 0, len(st.Members)+len(st.Parity))
	for i, cidx := range st.Members {
		m := &d.chunks[cidx]
		if m.VirtualID == entry.VirtualID {
			plan.targetSlot = i
			continue
		}
		plan.siblings = append(plan.siblings, shardRef{
			slot: i, provIdx: m.CPIndex, vid: m.VirtualID, payloadLen: m.PayloadLen,
		})
	}
	for i, ps := range st.Parity {
		plan.siblings = append(plan.siblings, shardRef{
			slot: plan.dataShards + i, provIdx: ps.CPIndex, vid: ps.VirtualID, payloadLen: st.ShardLen,
		})
	}
	return plan
}

// fetchResult is one verified chunk read: the stored payload as it sits
// on the provider (mislead bytes in, or ciphertext) plus the recovered
// original bytes that payload verified against. Read paths serve
// recovered; maintenance paths (parity math, re-placement, snapshots)
// reuse payload knowing it passed end-to-end verification.
type fetchResult struct {
	payload   []byte
	recovered []byte
}

// fetchPayloadPlan returns just the verified stored payload — the
// convenience used by maintenance paths (parity re-encode, blob moves,
// snapshots) that re-place the payload as-is and only need the proof
// that it matches the chunk's checksum end-to-end.
func (d *Distributor) fetchPayloadPlan(plan *fetchPlan) ([]byte, error) {
	res, err := d.fetchVerifiedPlan(plan)
	if err != nil {
		return nil, err
	}
	return res.payload, nil
}

// fetchChunkPlan retrieves a chunk's original bytes from a plan:
// provider get (or RAID reconstruction), mislead stripping, checksum
// verification. It takes no locks.
func (d *Distributor) fetchChunkPlan(plan *fetchPlan) ([]byte, error) {
	res, err := d.fetchVerifiedPlan(plan)
	if err != nil {
		return nil, err
	}
	return res.recovered, nil
}

// stripAndVerify recovers a chunk's original bytes from its stored
// payload — decrypting (for encrypted files) or stripping misleading
// bytes — and checks the result against the chunk's checksum. dst, when
// not nil, is where the caller wants them: a zero-length slice with
// capacity for exactly the chunk (a segment of a whole-file buffer),
// which decoys are stripped straight into. Bytes that verify are the
// chunk's DataLen long, so they always fit; bytes that do not may have
// left garbage in dst's spare capacity and are not returned. With a nil
// dst the result is freshly allocated or, for a plain chunk, the payload
// itself.
func stripAndVerify(entry *chunkEntry, payload, dst []byte) ([]byte, error) {
	data, placed := payload, false
	var err error
	switch {
	case entry.EncKey != nil:
		if data, err = cryptofrag.Decrypt(entry.EncKey, payload); err != nil {
			return nil, fmt.Errorf("%w: decrypting chunk: %v", ErrUnavailable, err)
		}
	case entry.Mislead.Count() > 0:
		if dst == nil {
			data, err = mislead.Strip(payload, entry.Mislead)
		} else {
			data, err = mislead.StripTo(dst, payload, entry.Mislead)
			placed = true
		}
		if err != nil {
			return nil, fmt.Errorf("core: stripping misleading bytes: %w", err)
		}
	}
	if sha256.Sum256(data) != entry.Sum {
		return nil, fmt.Errorf("%w: checksum mismatch for %s/%s#%d", ErrUnavailable, entry.Client, entry.Filename, entry.Serial)
	}
	if dst != nil && !placed {
		data = append(dst, data...)
	}
	return data, nil
}

// tryGet fetches one blob with transient-failure retry, feeding the
// outcome into the provider's health accounting; a wrong length
// (provider-side truncation) counts as failure for the caller but not
// for the breaker — the provider did answer.
func (d *Distributor) tryGet(provIdx int, vid string, wantLen int) ([]byte, bool) {
	var payload []byte
	err := d.providerOp(provIdx, func(p provider.Provider) error {
		var e error
		payload, e = p.Get(vid)
		return e
	})
	if err != nil || len(payload) != wantLen {
		return nil, false
	}
	return payload, true
}

// reconstructPlan rebuilds one chunk from the surviving members of its
// stripe, as snapshotted in the plan. It takes no locks. The surviving
// shards are pooled scratch released before returning; the rebuilt
// payload is copied out so no pooled buffer ever escapes the read path.
func (d *Distributor) reconstructPlan(plan *fetchPlan) ([]byte, error) {
	if plan.level.ParityShards() == 0 {
		return nil, fmt.Errorf("%w: provider down and no parity (raid level none)", ErrUnavailable)
	}
	if plan.targetSlot == -1 {
		return nil, fmt.Errorf("%w: chunk not a member of its stripe", ErrUnavailable)
	}
	shards := make([][]byte, plan.dataShards+plan.parityCount)
	var pooled [][]byte
	defer func() {
		for _, b := range pooled {
			bufpool.Put(b)
		}
	}()
	for _, ref := range plan.siblings {
		payload, err := d.rawShard(ref.provIdx, ref.vid, plan.shardLen, ref.payloadLen)
		if err != nil {
			continue // surviving-shard fetch failed; leave nil for decoder
		}
		shards[ref.slot] = payload
		pooled = append(pooled, payload)
	}
	stripe := &raid.Stripe{Level: plan.level, Shards: shards, DataShards: plan.dataShards}
	if err := stripe.Reconstruct(); err != nil {
		return nil, fmt.Errorf("%w: reconstruction failed: %v", ErrUnavailable, err)
	}
	rebuilt := stripe.Shards[plan.targetSlot]
	if len(rebuilt) < plan.entry.PayloadLen {
		return nil, fmt.Errorf("%w: rebuilt shard shorter than payload", ErrUnavailable)
	}
	out := make([]byte, plan.entry.PayloadLen)
	copy(out, rebuilt)
	return out, nil
}

// rawShard fetches one shard with transient retry and zero-pads it (in a
// pooled buffer the caller releases) to the stripe's shard length so
// parity math lines up.
func (d *Distributor) rawShard(provIdx int, vid string, shardLen, payloadLen int) ([]byte, error) {
	var payload []byte
	err := d.providerOp(provIdx, func(p provider.Provider) error {
		var e error
		payload, e = p.Get(vid)
		return e
	})
	if err != nil {
		return nil, err
	}
	if len(payload) != payloadLen {
		return nil, fmt.Errorf("%w: shard length %d, want %d", ErrUnavailable, len(payload), payloadLen)
	}
	out := bufpool.Get(shardLen)
	n := copy(out, payload)
	clear(out[n:])
	return out, nil
}
