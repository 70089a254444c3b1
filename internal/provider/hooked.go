package provider

import (
	"errors"
	"sync"
)

// ErrSilentDrop, returned by a before-delete hook, makes the Hooked
// provider report success WITHOUT delegating — the blob stays on disk
// while the caller believes it is gone. That models a real storage
// misbehavior (a provider acking deletes it never applies) and is the
// knob simulation harnesses use to prove their orphan-blob oracle has
// teeth: a dropped delete must surface as an unexplained orphan.
var ErrSilentDrop = errors.New("provider: operation silently dropped")

// Hooked wraps a Provider with observation/abort hooks on the data plane.
// Unlike SetOutage — which makes Down() report the outage so the fleet's
// eligibility filter hides the provider from placement — a Hooked failure
// is silent: the provider still claims to be up while its operations
// fail. That is exactly the misbehavior the distributor's health tracker
// exists to catch, so tests and simulations use Hooked to stage
// mid-upload faults, sustained silent outages, byte corruption and
// network partitions.
//
// Ordering per operation: the before-hook runs first (it observes every
// attempt, even ones the partition will swallow), then the partition
// gate, then the delegate. The Get transform runs last, on the
// delegate's result.
type Hooked struct {
	Provider

	mu           sync.Mutex
	puts         int
	partitioned  bool
	beforePut    func(n int, key string) error
	beforeGet    func(key string) error
	transformGet func(key string, data []byte) []byte
	beforeDelete func(key string) error
	beforeList   func() error
}

// NewHooked wraps p.
func NewHooked(p Provider) *Hooked { return &Hooked{Provider: p} }

// SetBeforePut installs fn, called before every Put with the 1-based
// ordinal of that Put on this provider; a non-nil return aborts the Put
// with that error before anything is stored. nil removes the hook.
func (h *Hooked) SetBeforePut(fn func(n int, key string) error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.beforePut = fn
}

// SetBeforeGet installs fn, called before every Get; a non-nil return
// aborts the Get with that error. nil removes the hook.
func (h *Hooked) SetBeforeGet(fn func(key string) error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.beforeGet = fn
}

// SetTransformGet installs fn, applied to every successful Get result
// before it reaches the caller — the corruption hook. fn receives a
// private copy of the stored bytes and may mutate it in place or return
// a replacement (same-length mutations model silent bit rot; the stored
// blob itself is untouched). nil removes the hook.
func (h *Hooked) SetTransformGet(fn func(key string, data []byte) []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.transformGet = fn
}

// SetBeforeDelete installs fn, called before every Delete; a non-nil
// return aborts the Delete with that error — except ErrSilentDrop, which
// makes the Delete report success without removing anything (see
// ErrSilentDrop). nil removes the hook.
func (h *Hooked) SetBeforeDelete(fn func(key string) error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.beforeDelete = fn
}

// SetBeforeList installs fn, called before every Keys listing; a non-nil
// return makes Keys return nil — the provider hides its inventory, the
// failure mode that turns an orphan audit blind. nil removes the hook.
func (h *Hooked) SetBeforeList(fn func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.beforeList = fn
}

// SetPartitioned toggles a silent network partition: every data-plane
// operation (Put/Get/Delete/Keys) fails with ErrOutage while Down() keeps
// reporting the provider as up, so placement still tries it and only the
// health tracker can learn the truth.
func (h *Hooked) SetPartitioned(v bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.partitioned = v
}

// Puts returns how many Put calls reached this provider (aborted or not).
func (h *Hooked) Puts() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.puts
}

// Put counts the call, consults the hook and partition gate, then
// delegates.
func (h *Hooked) Put(key string, data []byte) error {
	h.mu.Lock()
	h.puts++
	n := h.puts
	fn := h.beforePut
	cut := h.partitioned
	h.mu.Unlock()
	if fn != nil {
		if err := fn(n, key); err != nil {
			return err
		}
	}
	if cut {
		return ErrOutage
	}
	return h.Provider.Put(key, data)
}

// Get consults the hook and partition gate, delegates, then applies the
// corruption transform to the result.
func (h *Hooked) Get(key string) ([]byte, error) {
	h.mu.Lock()
	fn := h.beforeGet
	tf := h.transformGet
	cut := h.partitioned
	h.mu.Unlock()
	if fn != nil {
		if err := fn(key); err != nil {
			return nil, err
		}
	}
	if cut {
		return nil, ErrOutage
	}
	data, err := h.Provider.Get(key)
	if err != nil {
		return nil, err
	}
	if tf != nil {
		data = tf(key, data)
	}
	return data, nil
}

// Delete consults the hook and partition gate, then delegates. A hook
// returning ErrSilentDrop acks the delete without performing it.
func (h *Hooked) Delete(key string) error {
	h.mu.Lock()
	fn := h.beforeDelete
	cut := h.partitioned
	h.mu.Unlock()
	if fn != nil {
		if err := fn(key); err != nil {
			if errors.Is(err, ErrSilentDrop) {
				return nil
			}
			return err
		}
	}
	if cut {
		return ErrOutage
	}
	return h.Provider.Delete(key)
}

// Keys consults the hook and partition gate, then delegates. A failing
// hook or an active partition yields nil — an empty inventory, exactly
// what a scrubber or auditor would see from an unreachable provider.
func (h *Hooked) Keys() []string {
	h.mu.Lock()
	fn := h.beforeList
	cut := h.partitioned
	h.mu.Unlock()
	if fn != nil {
		if err := fn(); err != nil {
			return nil
		}
	}
	if cut {
		return nil
	}
	return h.Provider.Keys()
}
