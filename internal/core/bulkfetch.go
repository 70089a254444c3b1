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
// Parallelism keep the per-call wait near a single get's.
const (
	bulkGetBlobs = 32
	bulkGetBytes = 1 << 20
)

// chunkRead is one chunk of a whole-file or range read on its way
// through the primary-fetch step: the plan going in, the verified result
// coming out. dst, when set, is where the recovered bytes belong (see
// stripAndVerify). A payload delivered by a multi-get is a view of that
// call's response buffer, shared with its neighbours: it lives as long
// as the request, goes to no buffer pool, and anything kept longer (the
// chunk cache) is a copy.
type chunkRead struct {
	plan *fetchPlan
	dst  []byte
	res  fetchResult
	ok   bool
	// primaryWrong: the primary answered, with a blob of the wrong length
	// or the wrong bytes. Asking it again would fetch the same blob, so
	// the ladder starts one rung up.
	primaryWrong bool
}

// bulkCall is one provider call of the step: which provider, and which
// reads (indices into the step's slice) it carries.
type bulkCall struct {
	prov  int
	reads []int
	bytes int
}

// planBulkCalls groups reads by primary provider into calls within the
// caps, in one pass: a read joins its provider's open call or, when that
// is full, opens the next. Calls are therefore ordered by the first read
// they carry — file order, which interleaves the providers — and the
// grouping is a pure function of the plans.
func (d *Distributor) planBulkCalls(reads []chunkRead) []bulkCall {
	var calls []bulkCall
	open := make([]int, d.fleet.Len()) // provider → its open call + 1
	for i := range reads {
		e := &reads[i].plan.entry
		k := open[e.CPIndex] - 1
		if k < 0 || len(calls[k].reads) == bulkGetBlobs || calls[k].bytes+e.PayloadLen > bulkGetBytes {
			k = len(calls)
			calls = append(calls, bulkCall{prov: e.CPIndex, reads: make([]int, 0, min(bulkGetBlobs, len(reads)-i))})
			open[e.CPIndex] = k + 1
		}
		calls[k].reads = append(calls[k].reads, i)
		calls[k].bytes += e.PayloadLen
	}
	return calls
}

// fetchPrimaries is the first step of every multi-chunk read (GetFile,
// GetRange): it asks each chunk's primary provider for it, one provider
// call per group of chunks instead of one per chunk, and verifies every
// blob that comes back (length, then strip/decrypt + checksum, straight
// into its destination). What it could not deliver — a failed call, a
// missing, short or corrupt blob — it leaves !ok and returns, for the
// caller to send up the per-chunk ladder (climbRest), whose retries,
// mirrors and reconstruction are unchanged. direct says the caller's
// ladder has no reconstruction rung (GetRange solves stripes itself), so
// a late call is raced by mirrors only.
func (d *Distributor) fetchPrimaries(reads []chunkRead, direct bool) (missed []*chunkRead) {
	calls := d.planBulkCalls(reads)
	d.runParallel(len(calls), func(k int) { d.bulkGet(reads, &calls[k], direct) })
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
// the ladder (mirrors, then reconstruction). The race is run from here,
// so only this goroutine ever writes a read: the first verified result
// per chunk wins, and once the call does answer, the chunks not yet
// rescued are served from it. Like any losing rung the late call runs to
// completion and its genuine outcome reaches the health tracker.
func (d *Distributor) bulkGet(reads []chunkRead, c *bulkCall, direct bool) {
	p, err := d.fleet.At(c.prov)
	if err != nil {
		return
	}
	keys := make([]string, len(c.reads))
	for j, i := range c.reads {
		keys[j] = reads[i].plan.entry.VirtualID
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
	// settle verifies the call's answers for reads c.reads[from:].
	settle := func(a bulkAnswer, from int) {
		for j := from; j < len(keys); j++ {
			r := &reads[c.reads[j]]
			if a.errs[j] != nil {
				continue
			}
			if len(a.blobs[j]) != r.plan.entry.PayloadLen {
				r.primaryWrong = true
				continue
			}
			recovered, err := stripAndVerify(&r.plan.entry, a.blobs[j], r.dst)
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
		r := &reads[c.reads[j]]
		rungs := d.restOfLadder(r, true, direct)
		if len(rungs) == 0 {
			// Nothing to race this chunk with: wait the call out.
			settle(<-done, j)
			return
		}
		select {
		case a := <-done:
			settle(a, j)
			return
		default:
		}
		if res, err := d.fetchHedged(rungs, true); err == nil {
			r.place(res)
		}
	}
}

// restOfLadder is the read's per-chunk ladder without the rungs that are
// not worth (or not the caller's to) climb: the primary when it is being
// raced or has already answered wrongly, reconstruction when the caller
// is direct.
func (d *Distributor) restOfLadder(r *chunkRead, skipPrimary, direct bool) []readRung {
	rungs := d.readRungs(r.plan)
	if skipPrimary {
		rungs = rungs[1:]
	}
	if direct {
		rungs = rungs[:len(rungs)-1]
	}
	return rungs
}

// climbRest sends a read the primary-fetch step could not deliver up the
// rest of its ladder.
func (d *Distributor) climbRest(r *chunkRead, direct bool) error {
	res, err := d.climb(d.restOfLadder(r, r.primaryWrong, direct))
	if err == nil {
		r.place(res)
	}
	return err
}

// place records a ladder result as the read's, moving the recovered
// bytes to the read's destination when it has one.
func (r *chunkRead) place(res fetchResult) {
	if r.dst != nil {
		res.recovered = append(r.dst, res.recovered...)
	}
	r.res, r.ok = res, true
}
