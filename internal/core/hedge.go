package core

import (
	"errors"
	"fmt"
	"time"
)

// rungKind names the three sources a chunk payload can come from, in
// ladder order.
type rungKind int

const (
	rungPrimary rungKind = iota
	rungMirror
	rungReconstruct
)

// errRungFailed is the internal marker for a primary or mirror fetch
// that missed (wrong length, corrupt bytes, exhausted retries, outage).
// It never reaches callers: when every rung fails, the reconstruction
// rung's descriptive ErrUnavailable is returned instead.
var errRungFailed = errors.New("core: read rung failed")

// readRung is one source in the payload read ladder: where the bytes
// live and how to fetch them. fetch takes no locks and is safe to run
// concurrently with the other rungs of the same ladder.
type readRung struct {
	kind    rungKind
	provIdx int // provider racing this rung; -1 for reconstruction
	fetch   func() (fetchResult, error)
}

// readRungs builds the ladder for row at of rows: primary, then each
// mirror, then degraded RAID reconstruction. Every rung verifies its payload
// end-to-end (strip/decrypt + checksum) before declaring success, so a
// provider returning plausible-length garbage is indistinguishable from
// one that failed outright: the ladder falls through to the next copy
// instead of serving corrupt bytes. The reconstruction rung is always
// present — without parity it fails immediately with the descriptive
// error the ladder reports when everything else missed too. known is
// what the caller has already settled of the chunk's stripe
// (solveStripe); nil for a read that stands alone.
func (d *Distributor) readRungs(rows *stripeRows, at int, known map[string][]byte) []readRung {
	entry := &rows.chunks[at]
	verified := func(payload []byte) (fetchResult, error) {
		recovered, err := stripAndVerify(entry, payload, nil)
		if err != nil {
			return fetchResult{}, err
		}
		return fetchResult{payload: payload, recovered: recovered}, nil
	}
	source := func(provIdx int, vid string) func() (fetchResult, error) {
		return func() (fetchResult, error) {
			payload, ok := d.tryGet(provIdx, vid, entry.PayloadLen)
			if !ok {
				return fetchResult{}, errRungFailed
			}
			res, err := verified(payload)
			if err != nil {
				// The provider answered with the right length but the
				// wrong bytes — silent corruption, not unavailability.
				d.counters.corruptionsDetected.Add(1)
				return fetchResult{}, errRungFailed
			}
			return res, nil
		}
	}
	rungs := make([]readRung, 0, len(entry.Mirrors)+2)
	rungs = append(rungs, readRung{kind: rungPrimary, provIdx: entry.CPIndex,
		fetch: source(entry.CPIndex, entry.VirtualID)})
	for _, m := range entry.Mirrors {
		rungs = append(rungs, readRung{kind: rungMirror, provIdx: m.CPIndex,
			fetch: source(m.CPIndex, m.VirtualID)})
	}
	rungs = append(rungs, readRung{kind: rungReconstruct, provIdx: -1, fetch: func() (fetchResult, error) {
		payload, err := d.solveStripe(rows, at, known)
		if err != nil {
			return fetchResult{}, err
		}
		res, verr := verified(payload)
		if verr != nil {
			return fetchResult{}, fmt.Errorf("%w: reconstruction yields corrupt payload: %v", ErrUnavailable, verr)
		}
		return res, nil
	}})
	return rungs
}

// recordRungWin attributes a served payload to its source: the
// primary/mirror/reconstruction counters.
func (d *Distributor) recordRungWin(kind rungKind) {
	switch kind {
	case rungPrimary:
		d.counters.primaryHits.Add(1)
	case rungMirror:
		d.counters.mirrorHits.Add(1)
	case rungReconstruct:
		d.counters.reconstructions.Add(1)
	}
}

// hedgeDelay returns how long to let a just-launched read of blobs blobs
// from provIdx run before racing the next rung against it: twice what the
// provider's latency EWMA — a per-blob figure — predicts for that many,
// comfortably above a typical response, so a healthy provider is almost
// never hedged — clamped below by hedgeAfter/8 so a freshly started
// distributor (no samples, EWMA 0) cannot hedge instantly, and above by
// hedgeAfter or by what the fleet's median provider predicts for that
// many blobs, whichever is longer. The second ceiling is for a provider
// that serves a batch key by key (S3's verbs: one GET per blob at a
// cloud round trip): there every call outlasts hedgeAfter, and only a
// provider slower than the fleet's median is worth racing.
func (d *Distributor) hedgeDelay(provIdx, blobs int) time.Duration {
	ceiling := max(d.hedgeAfter, 2*d.health.MedianLatencyEWMA()*time.Duration(blobs))
	if provIdx < 0 {
		return ceiling
	}
	ewma := d.health.LatencyEWMA(provIdx)
	if ewma <= 0 {
		return ceiling
	}
	return min(max(2*ewma*time.Duration(blobs), d.hedgeAfter/8), ceiling)
}

// fetchHedged runs a ladder, the only runner: rung 0 launches
// immediately, and each further rung launches either when its
// predecessor's hedge delay expires (the predecessor is slow but may
// still answer) or the moment every launched rung has failed (nothing
// left to wait for). With hedging off (Config.HedgeAfter <= 0) no delay
// is armed, so the rungs run strictly one after another. The first
// successful payload wins; later arrivals are discarded. Losing rungs
// are not cancelled — the provider interface has no context plumbing —
// they run to completion in the background and their genuine outcomes
// feed the health tracker exactly as if they had run alone, so losing a
// race never looks like a provider failure. raced says the ladder's
// first rung is itself a hedge — the read step racing a late multi-get
// (bulkGet) — so the read counts as hedged from the start and a win by
// any rung is a hedge win.
func (d *Distributor) fetchHedged(rungs []readRung, raced bool) (fetchResult, error) {
	type rungResult struct {
		idx int
		res fetchResult
		err error
	}
	// Buffered to len(rungs): a loser finishing after the winner returns
	// must never block on its send, or its goroutine would leak.
	results := make(chan rungResult, len(rungs))
	byHedge := make([]bool, len(rungs))
	launched := 0
	launch := func() {
		r := rungs[launched]
		idx := launched
		launched++
		go func() {
			res, err := r.fetch()
			results <- rungResult{idx: idx, res: res, err: err}
		}()
	}

	var timer *time.Timer
	var timerC <-chan time.Time
	// arm schedules the next hedge relative to the rung just launched. A
	// fresh timer per launch sidesteps the Reset/drain races of reusing
	// one; the ladder is at most a handful of rungs deep.
	arm := func() {
		if timer != nil {
			timer.Stop()
		}
		timer, timerC = nil, nil
		if launched < len(rungs) && d.hedgeAfter > 0 {
			timer = time.NewTimer(d.hedgeDelay(rungs[launched-1].provIdx, 1))
			timerC = timer.C
		}
	}
	launch()
	arm()
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()

	hedged := raced
	if raced {
		d.counters.hedgedReads.Add(1)
		byHedge[0] = true
	}
	var reconErr error
	for done := 0; ; {
		select {
		case <-timerC:
			if !hedged {
				hedged = true
				d.counters.hedgedReads.Add(1)
			}
			byHedge[launched] = true
			launch()
			arm()
		case res := <-results:
			if res.err == nil {
				if byHedge[res.idx] {
					d.counters.hedgeWins.Add(1)
				}
				d.recordRungWin(rungs[res.idx].kind)
				return res.res, nil
			}
			if rungs[res.idx].kind == rungReconstruct {
				reconErr = res.err
			}
			done++
			if done == len(rungs) {
				// Every rung failed; every ladder ends in reconstruction,
				// whose error is the most descriptive.
				return fetchResult{}, reconErr
			}
			if done == launched {
				// Nothing left in flight: escalate immediately rather
				// than waiting out a hedge delay that has no one to
				// hedge against.
				launch()
				arm()
			}
		}
	}
}

// readMember returns one verified read of row at of rows: the stored
// payload (post-mislead bytes) plus the recovered original bytes it
// verified against. The fallback ladder is: primary provider → mirror
// replicas → RAID reconstruction from the stripe, and every rung
// checksums its answer before winning — corruption is rescued by falling
// through the ladder, never served. It takes no locks.
func (d *Distributor) readMember(rows *stripeRows, at int) (fetchResult, error) {
	return d.fetchHedged(d.readRungs(rows, at, nil), false)
}
