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

// HealthReport is the distributor's health, the GET /v1/health body:
// overall status, the per-provider circuit-breaker and liveness view,
// the chunk-cache counters (hits/misses/evictions/bytes; capacity 0
// means caching is disabled) and the durability view (records appended,
// fsyncs, replay count and last-checkpoint age; enabled=false means
// in-memory metadata).
type HealthReport struct {
	Status    string           `json:"status"` // ok | degraded
	Providers []ProviderHealth `json:"providers"`
	Cache     CacheStats       `json:"cache"`
	WAL       WALHealth        `json:"wal"`
}

// Health reports every provider's circuit-breaker state, last known
// liveness and accumulated success/failure counts, indexed by fleet
// position, with the cache and WAL views. Status is "degraded" when a
// provider is down or its circuit is not closed, "ok" otherwise. It does
// not take d.mu — the tracker, the cache and the log each have their
// own synchronization — so it stays readable even while a slow
// operation holds the distributor lock.
func (d *Distributor) Health() HealthReport {
	snap := d.health.Snapshot()
	h := HealthReport{Status: "ok", Providers: make([]ProviderHealth, len(snap)), Cache: d.cache.stats(), WAL: d.walHealth()}
	for i, s := range snap {
		p, _ := d.fleet.At(i) // the tracker has a slot for each provider New saw, and fleets only grow
		ratio := 0.0
		if s.WindowSamples > 0 {
			ratio = float64(s.WindowFailures) / float64(s.WindowSamples)
		}
		h.Providers[i] = ProviderHealth{
			Provider:            p.Info().Name,
			State:               s.State.String(),
			Down:                p.Down(),
			Successes:           s.Successes,
			Failures:            s.Failures,
			ConsecutiveFailures: s.ConsecutiveFailures,
			Opens:               s.Opens,
			WindowFailureRatio:  ratio,
			WindowSamples:       s.WindowSamples,
			LatencyEWMAMs:       float64(s.LatencyEWMA) / float64(time.Millisecond),
		}
		if h.Providers[i].Down || h.Providers[i].State != "closed" {
			h.Status = "degraded"
		}
	}
	return h
}
