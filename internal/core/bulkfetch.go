package core

import (
	"errors"
	"time"

	"repro/internal/provider"
)

// One provider call of the primary-fetch step carries at most this many
// blobs and (by their stored lengths) this many bytes — far below the
// hop's own 64 MiB body cap (transport's maxBlobRead), and small on
// purpose: measured flat from 8 to 128 blobs per call, while fan-outs of
// 128 outstanding chunk reads queue past the hedge floor and start hedge
// storms (EXPERIMENTS.md, PR 16). Small calls at the existing
// Parallelism keep the per-call wait near a single get's. A call of the
// delete step (deleteBlobs) carries at most as many keys, so a provider
// is told no larger a group by a remove than by a read.
const (
	bulkGetBlobs = 32
	bulkGetBytes = 1 << 20
)

// chunkRead is one located chunk of a read snapshot (openRead) on its way
// through the read: its row in its stripe's rows going in, the verified
// result coming out — already there (ok, no payload) when the cache had
// the chunk. dst, when set, is where the recovered bytes belong (see
// stripAndVerify). A payload delivered by a multi-get is a view of that
// call's response buffer, shared with its neighbours: it lives as long
// as the request, goes to no buffer pool, and anything kept longer (the
// chunk cache) is a copy.
type chunkRead struct {
	rows *stripeRows // the chunk's stripe, shared by its chunks in the snapshot
	at   int         // the chunk's row in rows
	dst  []byte
	res  fetchResult
	ok   bool
	// primaryWrong: the primary answered, with a blob of the wrong length
	// or the wrong bytes. Asking it again would fetch the same blob, so
	// the ladder starts one rung up.
	primaryWrong bool
}

// entry is the chunk's row.
func (r *chunkRead) entry() *chunkEntry { return &r.rows.chunks[r.at] }

// bulkCall is one provider call of a batched step — the primary fetch or
// the delete step: which provider, and which items (indices into the
// step's slice) it carries.
type bulkCall struct {
	prov  int
	items []int
	bytes int
}

// planBulkCalls groups items 0..n-1 by provider into calls within the
// caps, in one pass: at names an item's provider (negative: the item
// needs no call) and its stored length, and the item joins its
// provider's open call or, when that is full, opens the next. Calls are
// therefore ordered by the first item they carry — file order, which
// interleaves the providers — and the grouping is a pure function of the
// items.
func (d *Distributor) planBulkCalls(n int, at func(i int) (prov, size int)) []bulkCall {
	var calls []bulkCall
	open := make([]int, d.fleet.Len()) // provider → its open call + 1
	for i := 0; i < n; i++ {
		prov, size := at(i)
		if prov < 0 {
			continue
		}
		k := open[prov] - 1
		if k < 0 || len(calls[k].items) == bulkGetBlobs || calls[k].bytes+size > bulkGetBytes {
			k = len(calls)
			calls = append(calls, bulkCall{prov: prov, items: make([]int, 0, min(bulkGetBlobs, n-i))})
			open[prov] = k + 1
		}
		calls[k].items = append(calls[k].items, i)
		calls[k].bytes += size
	}
	return calls
}

// readChunks is the multi-chunk read step, the fetch of GetFile and
// GetRange alike: it settles every chunk of the snapshot, recovered bytes
// in the read's dst when it has one. Cache hits are already settled. The
// rest are asked of their primaries, a provider call per group of chunks
// (fetchPrimaries); what verifies fills the cache. Only what that missed
// climbs the rest of its ladder — mirrors, then reconstruction — through
// d.flights, so concurrent misses on one chunk generation coalesce into
// one fetch: the leader places the verified recovery and fills the cache,
// coalesced readers place the private copy they get back.
//
// The reads settled when the primary step finishes seed the stripe solves
// of the ones that missed (solveStripe's known): with one provider dark a
// whole-file read has every surviving data member of each degraded stripe
// in hand and fetches parity only. The price: two unreadable members of
// one stripe are two solves, not a shared one.
func (d *Distributor) readChunks(s *readSnap) error {
	reads := s.reads
	for i := range reads {
		if r := &reads[i]; r.ok {
			r.place(r.res)
		}
	}
	missed := d.fetchPrimaries(reads)
	if d.cache != nil {
		for i := range reads {
			if r := &reads[i]; r.ok && r.res.payload != nil {
				d.cache.put(s.key(r), r.res.recovered)
			}
		}
	}
	if len(missed) == 0 {
		return nil
	}
	// An empty payload seeds nothing: nil is the mark of a wrong blob.
	known := make(map[string][]byte, len(reads))
	for i := range reads {
		if r := &reads[i]; r.ok && len(r.res.payload) > 0 {
			known[r.entry().VirtualID] = r.res.payload
		} else if r.primaryWrong {
			known[r.entry().VirtualID] = nil
		}
	}
	return d.fanOutN(len(missed), func(k int) error {
		r := missed[k]
		key := s.key(r)
		data, shared, err := d.flights.do(key, func() ([]byte, error) {
			rungs := d.readRungs(r.rows, r.at, known)
			if r.primaryWrong {
				rungs = rungs[1:]
			}
			res, err := d.fetchHedged(rungs, false)
			if err != nil {
				return nil, err
			}
			r.place(res)
			d.cache.put(key, r.res.recovered)
			return r.res.recovered, nil
		})
		if err == nil && shared {
			r.place(fetchResult{recovered: data})
		}
		return err
	})
}

// fetchPrimaries asks each unsettled chunk's primary provider for it, one
// provider call per group of chunks instead of one per chunk, and
// verifies every blob that comes back (length, then strip/decrypt +
// checksum, straight into its destination). What it could not deliver —
// a failed call, a missing, short or corrupt blob — it leaves !ok and
// returns.
func (d *Distributor) fetchPrimaries(reads []chunkRead) (missed []*chunkRead) {
	calls := d.planBulkCalls(len(reads), func(i int) (int, int) {
		if reads[i].ok {
			return -1, 0
		}
		e := reads[i].entry()
		return e.CPIndex, e.PayloadLen
	})
	d.runParallel(len(calls), func(k int) { d.bulkGet(reads, &calls[k]) })
	for i := range reads {
		if !reads[i].ok {
			missed = append(missed, &reads[i])
		}
	}
	return missed
}

// bulkAnswer is what one provider call brought back, per read.
type bulkAnswer struct {
	blobs [][]byte
	errs  []error
}

// bulkGet makes one call and settles its reads. The call is one health
// sample — a success if the provider answered for any key (not-found is
// an answer), since the keys it failed are retried and recorded one by
// one on the ladder — and one latency sample of elapsed ÷ blobs, so the
// EWMA stays a per-blob figure and single-get hedge delays keep their
// meaning.
//
// With hedging on, a call that has not answered after the provider's
// hedge delay for that many blobs is raced chunk by chunk by the rest of
// the ladder (mirrors, then reconstruction — with nothing known: the
// other calls of the step are still writing their reads). The race is run
// from here, so only this goroutine ever writes a read: the first
// verified result per chunk wins, and once the call does answer, the
// chunks not yet rescued are served from it. Like any losing rung the
// late call runs to completion and its genuine outcome reaches the health
// tracker.
func (d *Distributor) bulkGet(reads []chunkRead, c *bulkCall) {
	p, err := d.fleet.At(c.prov)
	if err != nil {
		return
	}
	keys := make([]string, len(c.items))
	for j, i := range c.items {
		keys[j] = reads[i].entry().VirtualID
	}
	d.counters.bulkGets.Add(1)
	d.counters.bulkBlobs.Add(int64(len(keys)))
	call := func() bulkAnswer {
		start := time.Now()
		blobs, errs := provider.GetMany(p, keys)
		answered := false
		for _, err := range errs {
			if err == nil || errors.Is(err, provider.ErrNotFound) {
				answered = true
				break
			}
		}
		d.health.Record(c.prov, answered)
		if answered {
			d.health.RecordLatency(c.prov, time.Since(start)/time.Duration(len(keys)))
		}
		return bulkAnswer{blobs, errs}
	}
	// settle verifies the call's answers for reads c.items[from:].
	settle := func(a bulkAnswer, from int) {
		for j := from; j < len(keys); j++ {
			r := &reads[c.items[j]]
			if a.errs[j] != nil {
				continue
			}
			if len(a.blobs[j]) != r.entry().PayloadLen {
				r.primaryWrong = true
				continue
			}
			recovered, err := stripAndVerify(r.entry(), a.blobs[j], r.dst)
			if err != nil {
				// Right length, wrong bytes: silent corruption.
				d.counters.corruptionsDetected.Add(1)
				r.primaryWrong = true
				continue
			}
			r.res, r.ok = fetchResult{payload: a.blobs[j], recovered: recovered}, true
			d.counters.primaryHits.Add(1)
		}
	}
	if d.hedgeAfter <= 0 {
		settle(call(), 0)
		return
	}

	done := make(chan bulkAnswer, 1) // one send, never blocks: a late call must not leak
	go func() { done <- call() }()
	timer := time.NewTimer(d.hedgeDelay(c.prov, len(keys)))
	defer timer.Stop()
	select {
	case a := <-done:
		settle(a, 0)
		return
	case <-timer.C:
	}
	for j := range keys {
		r := &reads[c.items[j]]
		select {
		case a := <-done:
			settle(a, j)
			return
		default:
		}
		if res, err := d.fetchHedged(d.readRungs(r.rows, r.at, nil)[1:], true); err == nil {
			r.place(res)
		}
	}
}

// place records a ladder result as the read's, moving the recovered
// bytes to the read's destination when it has one.
func (r *chunkRead) place(res fetchResult) {
	if r.dst != nil {
		res.recovered = append(r.dst, res.recovered...)
	}
	r.res, r.ok = res, true
}
