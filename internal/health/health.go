// Package health tracks per-provider success/failure history and gates
// writes through a three-state circuit breaker. The paper motivates the
// whole architecture with the April 2011 EC2 outage; this package is the
// distributor-side machinery that notices such an outage from its own
// operation outcomes (rather than trusting a provider's self-reported
// status) and steers placement and write failover away from the failing
// provider until it proves itself healthy again.
//
// The breaker per provider moves Closed → Open after either a run of
// consecutive failures or a windowed failure ratio, Open → HalfOpen after
// a cooldown (admitting exactly one probe write), and HalfOpen → Closed
// on probe success. Reads are never gated — they are only recorded — so a
// successful read against an Open provider also closes the circuit
// immediately: the read acted as a free probe.
package health

import (
	"sync"
	"time"
)

// State is one circuit-breaker position.
type State int

// Breaker states.
const (
	// Closed: the provider is considered healthy; operations flow.
	Closed State = iota
	// Open: the provider is considered down; gated writes are rejected
	// and placement skips it.
	Open
	// HalfOpen: the cooldown elapsed; exactly one probe write may pass.
	HalfOpen
)

// String renders the state for logs and the health API.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Config tunes the tracker. Zero values select the defaults noted on each
// field.
type Config struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker regardless of the window (default 5).
	FailureThreshold int
	// Window is the number of most recent outcomes kept per provider for
	// the ratio rule (default 20).
	Window int
	// FailureRatio trips the breaker when the windowed failure fraction
	// reaches it (default 0.6).
	FailureRatio float64
	// MinSamples is the minimum number of windowed outcomes before the
	// ratio rule applies, so a single early failure cannot trip a fresh
	// breaker (default 10).
	MinSamples int
	// Cooldown is how long an Open circuit rejects gated writes before
	// admitting a half-open probe (default 30s).
	Cooldown time.Duration
	// Clock supplies the current time; nil selects time.Now. Tests inject
	// a virtual clock.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 5
	}
	if c.Window == 0 {
		c.Window = 20
	}
	if c.FailureRatio == 0 {
		c.FailureRatio = 0.6
	}
	if c.MinSamples == 0 {
		c.MinSamples = 10
	}
	if c.Cooldown == 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Status is one provider's externally visible health snapshot.
type Status struct {
	State               State
	Successes           int64
	Failures            int64
	ConsecutiveFailures int
	Opens               int64
	WindowFailures      int
	WindowSamples       int
	// LatencyEWMA is the exponentially weighted moving average of the
	// provider's successful-operation latency; 0 until the first sample.
	LatencyEWMA time.Duration
}

// breaker is the per-provider state.
type breaker struct {
	state       State
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	consecFails int

	successes int64
	failures  int64
	opens     int64

	window []bool // ring buffer of outcomes, true = success
	wHead  int
	wCount int
	wFails int

	// ewmaNs is the latency EWMA in nanoseconds (float to avoid the
	// truncation drift of repeated integer smoothing); 0 = no samples.
	ewmaNs float64
}

// Tracker accounts success/failure per provider and runs one breaker
// each. All methods are safe for concurrent use.
type Tracker struct {
	cfg Config

	mu             sync.Mutex
	provs          []breaker
	totalOpens     int64
	probeSuccesses int64
}

// NewTracker builds a tracker for n providers.
func NewTracker(n int, cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{cfg: cfg, provs: make([]breaker, n)}
	for i := range t.provs {
		t.provs[i].window = make([]bool, cfg.Window)
	}
	return t
}

func (t *Tracker) valid(i int) bool { return i >= 0 && i < len(t.provs) }

// Record feeds one operation outcome into provider i's breaker. A success
// against an Open or HalfOpen circuit closes it: the operation proved the
// provider back. A failure in HalfOpen re-opens it; a failure in Closed
// trips it once either the consecutive-failure threshold or the windowed
// failure ratio is reached.
func (t *Tracker) Record(i int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.valid(i) {
		return
	}
	b := &t.provs[i]
	b.push(ok)
	if ok {
		b.successes++
		b.consecFails = 0
		switch b.state {
		case HalfOpen:
			t.probeSuccesses++
			fallthrough
		case Open:
			b.state = Closed
			b.probing = false
		}
		return
	}
	b.failures++
	b.consecFails++
	switch b.state {
	case HalfOpen:
		// The probe failed: back to Open for another cooldown.
		b.state = Open
		b.probing = false
		b.openedAt = t.cfg.Clock()
		b.opens++
		t.totalOpens++
	case Closed:
		if b.consecFails >= t.cfg.FailureThreshold ||
			(b.wCount >= t.cfg.MinSamples &&
				float64(b.wFails)/float64(b.wCount) >= t.cfg.FailureRatio) {
			b.state = Open
			b.openedAt = t.cfg.Clock()
			b.opens++
			t.totalOpens++
		}
	}
}

// latencyAlpha is the EWMA smoothing factor: each new sample contributes
// a quarter, so the average tracks a provider's drift within a handful of
// operations without whipsawing on one outlier.
const latencyAlpha = 0.25

// RecordLatency feeds one successful operation's service time into
// provider i's latency EWMA. Callers only report successes: a fast
// failure (connection refused, circuit open) says nothing about how long
// the provider takes to actually serve bytes, and letting it drag the
// average down would make hedged reads fire later exactly when the
// provider is struggling.
func (t *Tracker) RecordLatency(i int, d time.Duration) {
	if d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.valid(i) {
		return
	}
	b := &t.provs[i]
	if b.ewmaNs == 0 {
		b.ewmaNs = float64(d)
		return
	}
	b.ewmaNs = (1-latencyAlpha)*b.ewmaNs + latencyAlpha*float64(d)
}

// LatencyEWMA returns provider i's smoothed successful-operation latency,
// or 0 when no sample has been recorded yet.
func (t *Tracker) LatencyEWMA(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.valid(i) {
		return 0
	}
	return time.Duration(t.provs[i].ewmaNs)
}

// push records one outcome in the sliding window.
func (b *breaker) push(ok bool) {
	if len(b.window) == 0 {
		return
	}
	if b.wCount == len(b.window) {
		// Evict the oldest outcome.
		if !b.window[b.wHead] {
			b.wFails--
		}
	} else {
		b.wCount++
	}
	b.window[b.wHead] = ok
	if !ok {
		b.wFails++
	}
	b.wHead = (b.wHead + 1) % len(b.window)
}

// Allow reports whether a gated write to provider i may proceed,
// consuming the single half-open probe slot when the cooldown has
// elapsed. Callers that get true while the circuit was Open are the
// probe; their Record outcome decides Closed vs re-Open.
func (t *Tracker) Allow(i int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.valid(i) {
		return false
	}
	b := &t.provs[i]
	switch b.state {
	case Closed:
		return true
	case Open:
		if t.cfg.Clock().Sub(b.openedAt) < t.cfg.Cooldown {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Available reports whether placement should consider provider i, without
// consuming the probe slot: Closed circuits, Open circuits past their
// cooldown (the subsequent gated write becomes the probe), and HalfOpen
// circuits with no probe in flight.
func (t *Tracker) Available(i int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.valid(i) {
		return false
	}
	b := &t.provs[i]
	switch b.state {
	case Closed:
		return true
	case Open:
		return t.cfg.Clock().Sub(b.openedAt) >= t.cfg.Cooldown
	default: // HalfOpen
		return !b.probing
	}
}

// State returns provider i's current breaker state.
func (t *Tracker) State(i int) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.valid(i) {
		return Closed
	}
	return t.provs[i].state
}

// Snapshot returns every provider's status, indexed by fleet position.
func (t *Tracker) Snapshot() []Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Status, len(t.provs))
	for i := range t.provs {
		b := &t.provs[i]
		out[i] = Status{
			State:               b.state,
			Successes:           b.successes,
			Failures:            b.failures,
			ConsecutiveFailures: b.consecFails,
			Opens:               b.opens,
			WindowFailures:      b.wFails,
			WindowSamples:       b.wCount,
			LatencyEWMA:         time.Duration(b.ewmaNs),
		}
	}
	return out
}

// Totals returns the fleet-wide count of circuit-open events and
// successful half-open probes.
func (t *Tracker) Totals() (opens, probeSuccesses int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalOpens, t.probeSuccesses
}
