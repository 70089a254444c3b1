package simcheck

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/provider"
)

// FaultCounts tallies every fault the injector introduced during a run.
type FaultCounts struct {
	PutFaults    int
	GetFaults    int
	DeleteFaults int
	Corruptions  int
	Delays       int
	Blackouts    int
	Partitions   int
	Outages      int
	Crashes      int
	SilentDrops  int
}

// add folds another shard's tallies into c.
func (c *FaultCounts) add(o FaultCounts) {
	c.PutFaults += o.PutFaults
	c.GetFaults += o.GetFaults
	c.DeleteFaults += o.DeleteFaults
	c.Corruptions += o.Corruptions
	c.Delays += o.Delays
	c.Blackouts += o.Blackouts
	c.Partitions += o.Partitions
	c.Outages += o.Outages
	c.Crashes += o.Crashes
	c.SilentDrops += o.SilentDrops
}

// injector drives the seeded fault schedule through provider.MemProvider's
// hook surface. Hooks are installed once and consult the injector's
// state, so suspending faults for a checkpoint is a single flag flip —
// no hook churn, no lost delete observations.
//
// Window bookkeeping is in op counts, never wall time: a partition
// "until op 137" ends when the driver reaches op 137, making the whole
// schedule a pure function of the seed.
type injector struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	tr     *trace
	tick   func(time.Duration)
	hooked []*provider.MemProvider

	active bool
	curOp  int

	blackoutUntil int
	partUntil     []int
	outUntil      []int
	crashArm      []int // puts left on this provider before it crashes
	crashDur      []int
	crashUntil    []int

	// keyLog records every put/delete attempt per vid (op, provider,
	// hook verdict) so an orphan violation can print the blob's whole
	// provider-facing history. It is not part of the hashed trace.
	keyLog map[string][]string

	// failedDeletes is the oracle's allowed-orphan set: every delete the
	// injector made fail is recorded here, because a failed delete is the
	// one legitimate way a blob outlives its table reference. The set
	// persists for the whole run: a stale copy left by a failed delete
	// stays invisible to the orphan audit while its vid is still
	// referenced from the copy's new home, and only surfaces checkpoints
	// later when the vid is retired. A delete that is silently dropped
	// (BugDropDeletes) is deliberately NOT recorded — that is the
	// planted bug the orphan invariant must catch.
	failedDeletes map[string]bool

	counts FaultCounts
}

func newInjector(cfg Config, seed int64, tr *trace, tick func(time.Duration), hooked []*provider.MemProvider) *injector {
	inj := &injector{
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(seed)),
		tr:            tr,
		tick:          tick,
		hooked:        hooked,
		active:        true,
		keyLog:        make(map[string][]string),
		failedDeletes: make(map[string]bool),
		partUntil:     make([]int, len(hooked)),
		outUntil:      make([]int, len(hooked)),
		crashArm:      make([]int, len(hooked)),
		crashDur:      make([]int, len(hooked)),
		crashUntil:    make([]int, len(hooked)),
	}
	for i, h := range hooked {
		p := i
		h.SetBeforePut(func(_ int, key string) error { return inj.beforePut(p, key) })
		h.SetBeforeGet(func(key string) error { return inj.beforeGet(p) })
		h.SetTransformGet(func(key string, data []byte) []byte { return inj.onGet(p, data) })
		h.SetBeforeDelete(func(key string) error { return inj.beforeDelete(p, key) })
		h.SetBeforeList(func() error { return inj.beforeList(p) })
	}
	return inj
}

// downLocked reports whether provider p is inside any fault window at
// the current op. Callers hold inj.mu.
func (inj *injector) downLocked(p int) bool {
	if inj.cfg.DarkProvider && p == 0 {
		return true
	}
	return inj.blackoutUntil > inj.curOp ||
		inj.partUntil[p] > inj.curOp ||
		inj.outUntil[p] > inj.curOp ||
		inj.crashUntil[p] > inj.curOp
}

func (inj *injector) beforePut(p int, key string) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	verdict := func(err error) error {
		inj.keyLog[key] = append(inj.keyLog[key], fmt.Sprintf("op=%d put p=%d -> %v", inj.curOp, p, err))
		return err
	}
	if !inj.active {
		return verdict(nil)
	}
	if inj.crashArm[p] > 0 {
		inj.crashArm[p]--
		if inj.crashArm[p] == 0 {
			// The provider dies taking this very write with it.
			inj.crashUntil[p] = inj.curOp + inj.crashDur[p]
			inj.counts.Crashes++
			inj.tr.addf("fault op=%d crash p=%d until=%d", inj.curOp, p, inj.crashUntil[p])
			return verdict(provider.ErrOutage)
		}
	}
	if inj.downLocked(p) {
		inj.counts.PutFaults++
		return verdict(provider.ErrOutage)
	}
	if inj.rng.Float64() < inj.cfg.DelayRate {
		inj.counts.Delays++
		inj.tick(time.Duration(1+inj.rng.Intn(4)) * time.Millisecond)
	}
	if inj.rng.Float64() < inj.cfg.PutFailRate {
		inj.counts.PutFaults++
		inj.tr.addf("fault op=%d put-fail p=%d", inj.curOp, p)
		if inj.rng.Intn(2) == 0 {
			return verdict(provider.ErrInjected)
		}
		return verdict(provider.ErrOutage)
	}
	return verdict(nil)
}

func (inj *injector) beforeGet(p int) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.active {
		return nil
	}
	if inj.downLocked(p) {
		inj.counts.GetFaults++
		return provider.ErrOutage
	}
	if inj.rng.Float64() < inj.cfg.DelayRate {
		inj.counts.Delays++
		inj.tick(time.Duration(1+inj.rng.Intn(4)) * time.Millisecond)
	}
	if inj.rng.Float64() < inj.cfg.GetFailRate {
		inj.counts.GetFaults++
		inj.tr.addf("fault op=%d get-fail p=%d", inj.curOp, p)
		return provider.ErrOutage
	}
	return nil
}

// onGet is the in-flight corruption fault: right length, wrong bytes.
// The store stays intact — only this answer lies.
func (inj *injector) onGet(p int, data []byte) []byte {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.active || len(data) == 0 {
		return data
	}
	if inj.rng.Float64() < inj.cfg.CorruptRate {
		inj.counts.Corruptions++
		inj.tr.addf("fault op=%d corrupt-get p=%d len=%d", inj.curOp, p, len(data))
		for i := range data {
			data[i] ^= 0x6B
		}
	}
	return data
}

func (inj *injector) beforeDelete(p int, key string) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	verdict := func(err error) error {
		inj.keyLog[key] = append(inj.keyLog[key], fmt.Sprintf("op=%d delete p=%d -> %v", inj.curOp, p, err))
		return err
	}
	if !inj.active {
		return verdict(nil)
	}
	if inj.cfg.BugDropDeletes {
		// Planted bug: acknowledge the delete without performing it and
		// without recording the key as a known-failed delete. The blob
		// becomes an orphan the rollback/GC bookkeeping knows nothing
		// about — exactly what the orphan invariant exists to catch.
		inj.counts.SilentDrops++
		inj.tr.addf("fault op=%d delete-silently-dropped p=%d vid=%s", inj.curOp, p, key)
		return verdict(provider.ErrSilentDrop)
	}
	if inj.downLocked(p) {
		inj.counts.DeleteFaults++
		inj.failedDeletes[key] = true
		return verdict(provider.ErrOutage)
	}
	if inj.rng.Float64() < inj.cfg.DeleteFailRate {
		inj.counts.DeleteFaults++
		inj.failedDeletes[key] = true
		inj.tr.addf("fault op=%d delete-fail p=%d vid=%s", inj.curOp, p, key)
		return verdict(provider.ErrInjected)
	}
	return verdict(nil)
}

func (inj *injector) beforeList(p int) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.active {
		return nil
	}
	if inj.downLocked(p) {
		return provider.ErrOutage
	}
	return nil
}

// atOp advances the schedule to op i: the virtual clock ticks once, and
// new fault windows may open. All randomness comes from the injector's
// own rng so the fault schedule is independent of the workload stream.
func (inj *injector) atOp(i int) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.curOp = i
	inj.tick(time.Millisecond)
	if inj.blackoutUntil <= i && inj.rng.Float64() < inj.cfg.BlackoutRate {
		inj.blackoutUntil = i + 2 + inj.rng.Intn(4)
		inj.counts.Blackouts++
		inj.tr.addf("fault op=%d blackout until=%d", i, inj.blackoutUntil)
	}
	if inj.rng.Float64() < inj.cfg.PartitionRate {
		p := inj.rng.Intn(len(inj.hooked))
		if inj.partUntil[p] <= i {
			inj.partUntil[p] = i + 4 + inj.rng.Intn(8)
			inj.counts.Partitions++
			inj.tr.addf("fault op=%d partition p=%d until=%d", i, p, inj.partUntil[p])
		}
	}
	if inj.rng.Float64() < inj.cfg.OutageRate {
		p := inj.rng.Intn(len(inj.hooked))
		if inj.outUntil[p] <= i {
			inj.outUntil[p] = i + 3 + inj.rng.Intn(6)
			inj.counts.Outages++
			inj.tr.addf("fault op=%d outage p=%d until=%d", i, p, inj.outUntil[p])
		}
	}
	if inj.rng.Float64() < inj.cfg.CrashRate {
		p := inj.rng.Intn(len(inj.hooked))
		if inj.crashArm[p] == 0 && inj.crashUntil[p] <= i {
			inj.crashArm[p] = 1 + inj.rng.Intn(3)
			inj.crashDur[p] = 4 + inj.rng.Intn(6)
			inj.tr.addf("fault op=%d crash-armed p=%d after=%d puts", i, p, inj.crashArm[p])
		}
	}
}

// suspend turns every fault off (checkpoints run against a healthy
// fleet); resume turns them back on. Window expiry keeps advancing via
// op counts either way.
func (inj *injector) suspend() {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.active = false
}

func (inj *injector) resume() {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.active = true
}

func (inj *injector) allowedOrphan(key string) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.failedDeletes[key]
}

// keyHistory returns the recorded put/delete attempts for a vid.
func (inj *injector) keyHistory(key string) []string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]string(nil), inj.keyLog[key]...)
}

func (inj *injector) faultCounts() FaultCounts {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.counts
}
