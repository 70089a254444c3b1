package minecheck

import (
	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/provider"
)

// spy is the access log a malicious provider operator would keep on one
// in-memory provider: every data-plane request with its arrival burst,
// operation, and key. The burst stamp is the harness's logical epoch
// counter — the deterministic stand-in for the wall-clock second an
// adversary in a real deployment would record; the driver advances the
// epoch between logical client operations, so requests serving one
// client op share a stamp exactly as a co-arriving burst would.
//
// Control-plane reads (Dump, Keys, Len, Usage) are the attacker's own
// actions and are not logged.
type spy struct {
	name  string
	epoch *atomic.Int64

	mu    sync.Mutex
	trace []attack.TimedAccess
}

// newSpy starts logging p's requests through its before-hooks.
func newSpy(p *provider.MemProvider, epoch *atomic.Int64) *spy {
	s := &spy{name: p.Info().Name, epoch: epoch}
	p.SetBeforePut(func(_ int, key string) error { return s.record("put", key) })
	p.SetBeforeGet(func(key string) error { return s.record("get", key) })
	p.SetBeforeDelete(func(key string) error { return s.record("delete", key) })
	return s
}

// record logs one request and lets it through.
func (s *spy) record(op, key string) error {
	t := s.epoch.Load()
	s.mu.Lock()
	s.trace = append(s.trace, attack.TimedAccess{T: t, Provider: s.name, Op: op, Key: key})
	s.mu.Unlock()
	return nil
}

// Trace returns a copy of the access log.
func (s *spy) Trace() []attack.TimedAccess {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]attack.TimedAccess(nil), s.trace...)
}
