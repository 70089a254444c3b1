package core

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/cryptofrag"
	"repro/internal/mislead"
	"repro/internal/provider"
	"repro/internal/raid"
)

// Every read is snapshot → fetch → sink. openRead takes the snapshot: the
// one place a read authenticates, walks the tables and consults the
// cache. The multi-chunk read step (readChunks, bulkfetch.go) or a
// single-chunk ladder (readMember) fetches what the snapshot did not
// already settle. GetChunk, GetFile, GetRange and GetFileTo differ only in
// which chunks they ask the snapshot for and where the recovered bytes go.

// readSpan says which chunks of a file a read is after: one serial, or
// the chunks overlapping the byte window [offset, offset+length) of the
// file — length < 0 meaning every chunk, 0 none.
type readSpan struct {
	one                    bool
	serial, offset, length int
}

var wholeFile = readSpan{length: -1}

// readSnap is what a read decided under d.mu: which file generation it
// pinned and the chunks it located, in serial order, each a row of its
// stripe's rows and, when the chunk cache had it, already settled.
// Everything after the snapshot runs without the lock.
type readSnap struct {
	fid, gen uint64
	chunks   int         // serials in the file, removed ones included
	fileOff  int         // file offset of reads[0]'s first byte
	reads    []chunkRead // the located chunks
}

func (s *readSnap) key(r *chunkRead) cacheKey {
	return cacheKey{fid: s.fid, serial: r.entry().Serial, gen: s.gen}
}

// openRead is the first step of every read (and of ChunkCount): under one
// d.mu.RLock hold it authenticates, resolves the file, enforces the
// privilege rule, refuses a file with a removed serial (unless exactly
// one other serial is wanted), locates the wanted chunks and, for each,
// copies its recovered bytes out of the cache — generation-keyed, so
// fe.Gen under this lock pins a consistent view — if the cache has them.
// The rows a located chunk is read through are its stripe's, copied once
// per stripe (stripeRowsLocked) and shared by every chunk of it — a
// stripe's chunks are consecutive serials. A chunk its stripe does not
// list gets a row of its own after the members, which the stripe solve
// refuses. A window is checked against the file's size before anything
// is copied or allocated for it.
func (d *Distributor) openRead(client, password, filename string, want readSpan) (*readSnap, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, fe, err := d.authFile(client, password, filename)
	if err != nil {
		return nil, err
	}
	s := &readSnap{fid: fe.FID, gen: fe.Gen, chunks: len(fe.ChunkIdx)}
	var st *stripeEntry // the stripe rows was copied from
	var rows *stripeRows
	locate := func(idx int) chunkRead {
		entry := &d.chunks[idx]
		if st != &d.stripes[entry.StripeID] {
			st = &d.stripes[entry.StripeID]
			rows = d.stripeRowsLocked(st, -1, 0, nil)
		}
		r := chunkRead{rows: rows, at: slices.Index(st.Members, idx)}
		if r.at == -1 {
			r.at = d.copyRowLocked(rows, idx)
		}
		r.res.recovered, r.ok = d.cache.get(cacheKey{fid: s.fid, serial: entry.Serial, gen: s.gen})
		return r
	}
	if want.one {
		if _, err := d.chunkOf(fe, want.serial); err != nil {
			return nil, err
		}
		s.reads = []chunkRead{locate(fe.ChunkIdx[want.serial])}
		return s, nil
	}
	if want.length == 0 {
		return s, nil
	}
	size := 0
	for serial := range fe.ChunkIdx {
		entry, err := d.chunkOf(fe, serial)
		if err != nil {
			return nil, err
		}
		size += entry.DataLen
	}
	if want.length > size-want.offset {
		return nil, fmt.Errorf("%w: %d bytes at offset %d of a file of %d bytes", ErrRange, want.length, want.offset, size)
	}
	if want.length < 0 {
		s.reads = make([]chunkRead, 0, len(fe.ChunkIdx))
	}
	cum := 0 // file offset of the chunk at hand
	for _, idx := range fe.ChunkIdx {
		entry := &d.chunks[idx]
		if want.length < 0 || (cum+entry.DataLen > want.offset && cum-want.offset < want.length) {
			if len(s.reads) == 0 {
				s.fileOff = cum
			}
			s.reads = append(s.reads, locate(idx))
		}
		cum += entry.DataLen
	}
	return s, nil
}

// chunkOf resolves a serial of fe to its live chunk entry. Callers hold
// d.mu.
func (d *Distributor) chunkOf(fe *fileEntry, serial int) (*chunkEntry, error) {
	if serial < 0 || serial >= len(fe.ChunkIdx) {
		return nil, fmt.Errorf("%w: serial %d of %s (file has %d chunks)", ErrNoSuchChunk, serial, fe.Filename, len(fe.ChunkIdx))
	}
	idx := fe.ChunkIdx[serial]
	if idx < 0 {
		return nil, fmt.Errorf("%w: serial %d was removed", ErrNoSuchChunk, serial)
	}
	return &d.chunks[idx], nil
}

// lookupChunk authenticates and resolves (client, filename, serial) for
// the write paths, which hold d.mu exclusively and mutate the entry.
func (d *Distributor) lookupChunk(client, password, filename string, serial int) (*chunkEntry, error) {
	_, fe, err := d.authFile(client, password, filename)
	if err != nil {
		return nil, err
	}
	return d.chunkOf(fe, serial)
}

// GetChunk serves one chunk to a client holding a sufficiently privileged
// password — the paper's get_chunk(client name, password, filename,
// sl no.). If the chunk's provider is unreachable the distributor
// transparently reconstructs the chunk from the stripe's surviving shards.
func (d *Distributor) GetChunk(client, password, filename string, serial int) ([]byte, error) {
	s, err := d.openRead(client, password, filename, readSpan{one: true, serial: serial})
	if err != nil {
		return nil, err
	}
	d.counters.chunkReads.Add(1)
	r := &s.reads[0]
	if r.ok {
		return r.res.recovered, nil
	}
	// Concurrent misses on the same chunk generation coalesce into one
	// fetch. A reader that raced a commit inserts under the generation it
	// planned against; if that generation is already superseded the entry
	// is unreachable (no future reader computes the old key) and ages out.
	key := s.key(r)
	data, shared, err := d.flights.do(key, func() ([]byte, error) {
		res, err := d.readMember(r.rows, r.at)
		return res.recovered, err
	})
	if err == nil && !shared {
		d.cache.put(key, data)
	}
	return data, err
}

// GetFile serves a whole file — the paper's get_file(client name,
// password, filename): every chunk, recovered by the read step directly
// into its segment of one buffer sized from the chunk entries' data
// lengths, so no per-chunk result slices or final concatenation exist.
func (d *Distributor) GetFile(client, password, filename string) ([]byte, error) {
	s, err := d.openRead(client, password, filename, wholeFile)
	if err != nil {
		return nil, err
	}
	size := 0
	for i := range s.reads {
		size += s.reads[i].entry().DataLen
	}
	buf := make([]byte, size)
	off := 0
	for i := range s.reads {
		end := off + s.reads[i].entry().DataLen
		s.reads[i].dst = buf[off:off:end]
		off = end
	}
	if err := d.readChunks(s); err != nil {
		return nil, err
	}
	d.counters.fileReads.Add(1)
	return buf, nil
}

// GetRange serves an arbitrary byte range of a file by reading only the
// chunks that overlap it — the fragmentation-side win of the paper's
// §VII-E comparison: a point query touches one or two chunks instead of
// the whole object, and a degraded one only the stripes of those chunks.
// The recovered chunks may be views of a multi-get's response buffer
// (chunkRead): the window is copied out of them.
func (d *Distributor) GetRange(client, password, filename string, offset, length int) ([]byte, error) {
	if offset < 0 || length < 0 {
		return nil, fmt.Errorf("%w: range of %d bytes at offset %d", ErrConfig, length, offset)
	}
	s, err := d.openRead(client, password, filename, readSpan{offset: offset, length: length})
	if err != nil {
		return nil, err
	}
	d.counters.rangeReads.Add(1)
	if err := d.readChunks(s); err != nil {
		return nil, err
	}
	out := make([]byte, 0, length)
	skip := offset - s.fileOff // the window starts inside the first chunk
	for i := range s.reads {
		part := s.reads[i].res.recovered[skip:]
		out = append(out, part[:min(len(part), length-len(out))]...)
		skip = 0
	}
	return out, nil
}

// ChunkCount reports how many chunks a file has (what the distributor
// "notifies" the client of).
func (d *Distributor) ChunkCount(client, password, filename string) (int, error) {
	s, err := d.openRead(client, password, filename, readSpan{})
	if err != nil {
		return 0, err
	}
	return s.chunks, nil
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
	case len(entry.Mislead.Encoded()) > 0:
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

// solveStripe rebuilds the stored payload of row at from the other shards
// of its stripe, as the rows have them — the one stripe decode of the
// read side. known holds the shards the caller has already settled, by
// virtual id: a stored payload that verified is used as it is, a nil
// entry marks a blob known to be wrong (fetching it again would feed the
// same bytes to the decoder); every other shard is fetched. A nil map is
// a solve with nothing known. It takes no locks. The shards are pooled
// scratch, zero-padded to the stripe's shard length so parity math lines
// up, and released before returning; the rebuilt payload is copied out so
// no pooled buffer ever escapes the read path.
func (d *Distributor) solveStripe(rows *stripeRows, at int, known map[string][]byte) ([]byte, error) {
	st := &rows.stripes[0]
	if st.Level.ParityShards() == 0 {
		return nil, fmt.Errorf("%w: provider down and no parity (raid level none)", ErrUnavailable)
	}
	target := slices.Index(st.Members, at)
	if target == -1 {
		return nil, fmt.Errorf("%w: chunk not a member of its stripe", ErrUnavailable)
	}
	shards := make([][]byte, len(st.Members)+len(st.Parity))
	var pooled [][]byte
	defer func() { releaseBuffers(pooled) }()
	// fill puts shard i, the n-byte blob vid on provider prov, in place.
	// A body fetched here is the caller-owned buffer Get returned, so it
	// goes back to bufpool once copied; a known entry is the caller's.
	fill := func(i, prov int, vid string, n int) {
		payload, ok := known[vid]
		fetched := !ok
		if ok {
			ok = payload != nil
		} else {
			payload, ok = d.tryGet(prov, vid, n)
		}
		if !ok {
			return // leave the slot empty for the decoder
		}
		shard := bufpool.Get(st.ShardLen)
		clear(shard[copy(shard, payload):])
		shards[i] = shard
		pooled = append(pooled, shard)
		if fetched {
			bufpool.Put(payload)
		}
	}
	for i, ci := range st.Members {
		if i != target {
			m := &rows.chunks[ci]
			fill(i, m.CPIndex, m.VirtualID, m.PayloadLen)
		}
	}
	for i, ps := range st.Parity {
		fill(len(st.Members)+i, ps.CPIndex, ps.VirtualID, st.ShardLen)
	}
	stripe := &raid.Stripe{Level: st.Level, Shards: shards, DataShards: len(st.Members)}
	if err := stripe.Reconstruct(); err != nil {
		return nil, fmt.Errorf("%w: reconstruction failed: %v", ErrUnavailable, err)
	}
	rebuilt, n := stripe.Shards[target], rows.chunks[at].PayloadLen
	if len(rebuilt) < n {
		return nil, fmt.Errorf("%w: rebuilt shard shorter than payload", ErrUnavailable)
	}
	out := make([]byte, n)
	copy(out, rebuilt)
	return out, nil
}
