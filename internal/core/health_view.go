package core

import "time"

// ProviderHealth is one provider's externally visible health snapshot,
// JSON-ready for the distributor's health endpoint and CLI.
type ProviderHealth struct {
	Provider string `json:"provider"`
	State    string `json:"state"` // closed | open | half-open
	// Down is the provider's last known liveness (Provider.Down) — with
	// State, what placement filters on: a provider that is down, or whose
	// circuit does not admit placements, is given no new shards.
	Down                bool    `json:"down"`
	Successes           int64   `json:"successes"`
	Failures            int64   `json:"failures"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	Opens               int64   `json:"opens"`
	WindowFailureRatio  float64 `json:"window_failure_ratio"`
	WindowSamples       int     `json:"window_samples"`
	// LatencyEWMAMs is the smoothed successful-operation latency in
	// milliseconds — the signal hedged reads derive their delay from.
	// 0 until the provider has served at least one operation.
	LatencyEWMAMs float64 `json:"latency_ewma_ms"`
}

// Health reports every provider's circuit-breaker state, last known
// liveness and accumulated success/failure counts, indexed by fleet
// position. It does not take d.mu — the tracker has its own
// synchronization — so it stays readable even while a slow operation
// holds the distributor lock.
func (d *Distributor) Health() []ProviderHealth {
	snap := d.health.Snapshot()
	out := make([]ProviderHealth, len(snap))
	for i, s := range snap {
		name, down := "", false
		if p, err := d.fleet.At(i); err == nil {
			name, down = p.Info().Name, p.Down()
		}
		ratio := 0.0
		if s.WindowSamples > 0 {
			ratio = float64(s.WindowFailures) / float64(s.WindowSamples)
		}
		out[i] = ProviderHealth{
			Provider:            name,
			State:               s.State.String(),
			Down:                down,
			Successes:           s.Successes,
			Failures:            s.Failures,
			ConsecutiveFailures: s.ConsecutiveFailures,
			Opens:               s.Opens,
			WindowFailureRatio:  ratio,
			WindowSamples:       s.WindowSamples,
			LatencyEWMAMs:       float64(s.LatencyEWMA) / float64(time.Millisecond),
		}
	}
	return out
}

// CacheHealth reports the chunk cache's hit/miss/eviction counters and
// residency, for the health endpoint. Like Health it does not take d.mu.
// All-zero (Capacity 0) means caching is disabled.
func (d *Distributor) CacheHealth() CacheStats {
	return d.cache.stats()
}
