// Package provider simulates S3-like cloud storage providers — the second
// entity of the paper's architecture. "The main tasks of Cloud Providers
// are: storing chunks of data, responding to a query by providing the
// desired data, and removing chunks when asked. All these are done using
// virtual id which is known as key for Amazon's simple storage service."
//
// A MemProvider is one provider: a concurrency-safe key→blob store with a
// reputation (privacy) level, a cost level, a seeded failure model,
// outage simulation (the EC2 April 2011 scenario the paper opens with),
// and billing counters. It answers at once: the delay of a remote
// provider is the network's, modelled per HTTP request in front of the
// provider's handler (transport.DelayRequests), never under its lock.
// Dump exposes the provider's complete view of stored data — exactly
// what a malicious insider (the paper's "Hera") gets to mine. Its
// data-plane hooks (SetBeforePut and friends, SetPartitioned) observe
// every request and stage the silent faults — aborted operations,
// corrupted reads, dropped deletes, partitions — that tests and
// simulations inject.
package provider

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/privacy"
)

// Store is the S3-like surface the distributor programs against: the
// paper's put()/get()/delete() methods keyed by virtual id. Put must not
// keep data past its return, and Get returns bytes the caller owns: no
// one else holds them, so a caller done with them may hand them to a
// buffer pool.
type Store interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	Delete(key string) error
	Info() Info
}

// GetMany reads several keys from p: in one call when p offers a GetMany
// of its own (transport.RemoteProvider does, one round trip for all of
// them), with one Get per key otherwise — which is also what a batch of
// one is, so a single read stays the single-key call it always was.
// blobs and errs are index-aligned with keys. The blobs may share one
// backing buffer: keep none of them past the use of the others without
// copying, and hand none to a buffer pool.
func GetMany(p Store, keys []string) (blobs [][]byte, errs []error) {
	if m, ok := p.(interface {
		GetMany(keys []string) ([][]byte, []error)
	}); ok && len(keys) > 1 {
		return m.GetMany(keys)
	}
	blobs, errs = make([][]byte, len(keys)), make([]error, len(keys))
	for i, key := range keys {
		blobs[i], errs[i] = p.Get(key)
	}
	return blobs, errs
}

// View reads key from p without a copy when p offers a View of its own
// (MemProvider does), with Get otherwise. The bytes may be the
// provider's own: read them, never write them, and hand them to no
// buffer pool.
func View(p Store, key string) ([]byte, error) {
	if v, ok := p.(interface {
		View(key string) ([]byte, error)
	}); ok {
		return v.View(key)
	}
	return p.Get(key)
}

// DeleteMany removes several keys from p, the way GetMany reads them: in
// one call when p offers a DeleteMany of its own and there is more than
// one key, with one Delete per key otherwise. errs is index-aligned with
// keys.
func DeleteMany(p Store, keys []string) (errs []error) {
	if m, ok := p.(interface {
		DeleteMany(keys []string) []error
	}); ok && len(keys) > 1 {
		return m.DeleteMany(keys)
	}
	errs = make([]error, len(keys))
	for i, key := range keys {
		errs[i] = p.Delete(key)
	}
	return errs
}

// Info is the static description of a provider: one row of the paper's
// Cloud Provider Table, minus the live chunk list the distributor keeps.
type Info struct {
	Name string
	// PL is the provider's privacy (trustworthiness/reputation) level: "A
	// chunk is given to a provider having equal or higher privacy level
	// compared to the privacy level of the chunk."
	PL privacy.Level
	// CL is the provider's cost level: "in case of equal privacy level,
	// the one with a lower cost level is given preference."
	CL privacy.CostLevel
}

// ErrNotFound is returned by Get/Delete for unknown keys.
var ErrNotFound = errors.New("provider: key not found")

// ErrOutage is returned while a provider is down.
var ErrOutage = errors.New("provider: outage")

// ErrInjected is the transient failure produced by the failure-rate model.
var ErrInjected = errors.New("provider: injected transient failure")

// ErrSilentDrop, returned by a before-delete hook, makes the provider
// report success WITHOUT deleting — the blob stays stored while the
// caller believes it is gone. That models a real storage misbehavior (a
// provider acking deletes it never applies) and is the knob simulation
// harnesses use to prove their orphan-blob oracle has teeth: a dropped
// delete must surface as an unexplained orphan.
var ErrSilentDrop = errors.New("provider: operation silently dropped")

// Options configures a MemProvider beyond its identity.
type Options struct {
	// FailureRate is the probability an operation fails with ErrInjected.
	// It is drawn in gate, under the provider's lock, for two reasons.
	// The draw comes from the one seeded source, so only serialized draws
	// let Seed reproduce a run, and the resilience tests rely on that;
	// unlike a delay, the draw never waits. And the before-hooks hold one
	// function each, so a failure rate folded into them would be replaced
	// without a word by a test's own SetBeforePut.
	FailureRate float64
	// Seed drives the failure model.
	Seed int64
}

// Usage captures a provider's billing-relevant counters.
type Usage struct {
	Puts, Gets, Deletes int64
	BytesStored         int64 // current resident bytes
	BytesIn, BytesOut   int64 // cumulative transfer
	Keys                int
}

// MemProvider is an in-memory simulated cloud provider. It is safe for
// concurrent use.
//
// Its hooks fail operations silently: unlike SetOutage, which makes Down
// report the outage so the fleet's eligibility filter hides the provider
// from placement, a hooked failure or a partition leaves the provider
// claiming to be up while its operations fail. That is exactly the
// misbehavior the distributor's health tracker exists to catch. Per
// operation the before-hook runs first (it observes every attempt, even
// ones the partition will swallow), then the partition gate, then the
// outage and failure model and the store; the Get transform runs last,
// on the stored bytes' copy. Hooks are read under the provider's lock
// and called outside it, so a hook may block or call back into the
// provider.
type MemProvider struct {
	info Info
	opts Options

	mu    sync.Mutex
	data  map[string][]byte
	down  bool
	rng   *rand.Rand
	usage Usage

	puts         int // Put attempts, aborted or not
	partitioned  bool
	beforePut    func(n int, key string) error
	beforeGet    func(key string) error
	transformGet func(key string, data []byte) []byte
	beforeDelete func(key string) error
	beforeList   func() error
}

// New creates a provider with the given identity and options.
func New(info Info, opts Options) (*MemProvider, error) {
	if info.Name == "" {
		return nil, fmt.Errorf("provider: empty name")
	}
	if !info.PL.Valid() {
		return nil, fmt.Errorf("provider: invalid privacy level %v", info.PL)
	}
	if !info.CL.Valid() {
		return nil, fmt.Errorf("provider: invalid cost level %d", info.CL)
	}
	if opts.FailureRate < 0 || opts.FailureRate >= 1 {
		return nil, fmt.Errorf("provider: failure rate %v outside [0,1)", opts.FailureRate)
	}
	return &MemProvider{
		info: info,
		opts: opts,
		data: make(map[string][]byte),
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}, nil
}

// MustNew is New panicking on error, for table-literal fleets in tests.
func MustNew(info Info, opts Options) *MemProvider {
	p, err := New(info, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Info returns the provider's identity.
func (p *MemProvider) Info() Info { return p.info }

// SetOutage toggles the provider's availability; while down every
// operation returns ErrOutage.
func (p *MemProvider) SetOutage(down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = down
}

// Down reports whether the provider is in an outage.
func (p *MemProvider) Down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// Probe is Down: an in-process provider's answer is already the truth.
func (p *MemProvider) Probe() bool { return p.Down() }

// SetBeforePut installs fn, called before every Put with the 1-based
// ordinal of that Put on this provider; a non-nil return aborts the Put
// with that error before anything is stored. nil removes the hook.
func (p *MemProvider) SetBeforePut(fn func(n int, key string) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.beforePut = fn
}

// SetBeforeGet installs fn, called before every Get; a non-nil return
// aborts the Get with that error. nil removes the hook.
func (p *MemProvider) SetBeforeGet(fn func(key string) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.beforeGet = fn
}

// SetTransformGet installs fn, applied to every successful Get result
// before it reaches the caller — the corruption hook. fn receives a
// private copy of the stored bytes and may mutate it in place or return
// a replacement (same-length mutations model silent bit rot; the stored
// blob itself is untouched). nil removes the hook.
func (p *MemProvider) SetTransformGet(fn func(key string, data []byte) []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.transformGet = fn
}

// SetBeforeDelete installs fn, called before every Delete; a non-nil
// return aborts the Delete with that error — except ErrSilentDrop, which
// makes the Delete report success without removing anything (see
// ErrSilentDrop). nil removes the hook.
func (p *MemProvider) SetBeforeDelete(fn func(key string) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.beforeDelete = fn
}

// SetBeforeList installs fn, called before every Keys listing; a non-nil
// return makes Keys return nil — the provider hides its inventory, the
// failure mode that turns an orphan audit blind. nil removes the hook.
func (p *MemProvider) SetBeforeList(fn func() error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.beforeList = fn
}

// SetPartitioned toggles a silent network partition: every data-plane
// operation (Put/Get/Delete/Keys) fails with ErrOutage while Down keeps
// reporting the provider as up, so placement still tries it and only the
// health tracker can learn the truth.
func (p *MemProvider) SetPartitioned(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partitioned = v
}

// Puts returns how many Put calls reached this provider (aborted or not).
func (p *MemProvider) Puts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.puts
}

// gate applies outage and failure injection. Callers hold p.mu.
func (p *MemProvider) gate() error {
	if p.down {
		return fmt.Errorf("%w: %s", ErrOutage, p.info.Name)
	}
	if p.opts.FailureRate > 0 && p.rng.Float64() < p.opts.FailureRate {
		return fmt.Errorf("%w: %s", ErrInjected, p.info.Name)
	}
	return nil
}

// Put stores data under key, overwriting any previous value. The data is
// copied.
func (p *MemProvider) Put(key string, data []byte) error {
	p.mu.Lock()
	p.puts++
	n, fn, cut := p.puts, p.beforePut, p.partitioned
	p.mu.Unlock()
	if fn != nil {
		if err := fn(n, key); err != nil {
			return err
		}
	}
	if cut {
		return ErrOutage
	}
	if key == "" {
		return fmt.Errorf("provider: empty key")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.gate(); err != nil {
		return err
	}
	if old, ok := p.data[key]; ok {
		p.usage.BytesStored -= int64(len(old))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	p.data[key] = cp
	p.usage.Puts++
	p.usage.BytesIn += int64(len(data))
	p.usage.BytesStored += int64(len(data))
	p.usage.Keys = len(p.data)
	return nil
}

// Get returns a copy of the value stored under key, passed through the
// transform hook when one is set.
func (p *MemProvider) Get(key string) ([]byte, error) { return p.read(key, true) }

// View is Get without the copy, for a caller that only reads what it is
// given: the stored bytes themselves. Put always stores a fresh copy and
// nothing writes into a stored slice, so a view never changes, even once
// its key is overwritten or deleted. It runs the before-get hook, the
// partition gate and the usage counters exactly as Get does; with a
// transform hook set it returns Get's transformed copy.
func (p *MemProvider) View(key string) ([]byte, error) { return p.read(key, false) }

// read is Get and View: the hooks, the partition gate, then the stored
// bytes, copied when private is set or a transform hook needs its own.
func (p *MemProvider) read(key string, private bool) ([]byte, error) {
	p.mu.Lock()
	fn, tf, cut := p.beforeGet, p.transformGet, p.partitioned
	p.mu.Unlock()
	if fn != nil {
		if err := fn(key); err != nil {
			return nil, err
		}
	}
	if cut {
		return nil, ErrOutage
	}
	data, err := p.get(key, private || tf != nil)
	if err == nil && tf != nil {
		data = tf(key, data)
	}
	return data, err
}

// get is read past the hooks and the partition gate.
func (p *MemProvider) get(key string, private bool) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.data[key]
	if err := p.gate(); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, p.info.Name, key)
	}
	if private {
		cp := make([]byte, len(v))
		copy(cp, v)
		v = cp
	}
	p.usage.Gets++
	p.usage.BytesOut += int64(len(v))
	return v, nil
}

// Delete removes key. Deleting an unknown key returns ErrNotFound. A
// before-delete hook returning ErrSilentDrop acks the delete without
// performing it.
func (p *MemProvider) Delete(key string) error {
	p.mu.Lock()
	fn, cut := p.beforeDelete, p.partitioned
	p.mu.Unlock()
	if fn != nil {
		if err := fn(key); errors.Is(err, ErrSilentDrop) {
			return nil
		} else if err != nil {
			return err
		}
	}
	if cut {
		return ErrOutage
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.gate(); err != nil {
		return err
	}
	v, ok := p.data[key]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, p.info.Name, key)
	}
	delete(p.data, key)
	p.usage.Deletes++
	p.usage.BytesStored -= int64(len(v))
	p.usage.Keys = len(p.data)
	return nil
}

// Usage returns a snapshot of the billing counters.
func (p *MemProvider) Usage() Usage {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.usage
	u.Keys = len(p.data)
	return u
}

// Dump returns every (key, value) pair the provider holds, sorted by key —
// the complete view available to a malicious insider. Values are copies.
func (p *MemProvider) Dump() map[string][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string][]byte, len(p.data))
	for k, v := range p.data {
		cp := make([]byte, len(v))
		copy(cp, v)
		out[k] = cp
	}
	return out
}

// Keys returns the stored keys in sorted order. A failing list hook or
// an active partition yields nil — an empty inventory, exactly what a
// scrubber or auditor would see from an unreachable provider.
func (p *MemProvider) Keys() []string {
	p.mu.Lock()
	fn, cut := p.beforeList, p.partitioned
	p.mu.Unlock()
	if fn != nil && fn() != nil || cut {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, 0, len(p.data))
	for k := range p.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of stored keys.
func (p *MemProvider) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.data)
}
