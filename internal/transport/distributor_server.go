package transport

import (
	"net/http"

	"repro/internal/core"
)

// DistributorServer exposes a Cloud Data Distributor over HTTP — the
// surface clients use ("Clients do not interact with Cloud Providers
// directly rather via Cloud Data Distributor"). Its routes are the rows
// of the table in routes.go.
type DistributorServer struct {
	d   *core.Distributor
	mux *http.ServeMux
	// lagSource, when set, contributes the replication section of
	// /v1/health (see SetLagSource).
	lagSource func() []core.ReplicaLag
}

// NewDistributorServer wraps a distributor.
func NewDistributorServer(d *core.Distributor) *DistributorServer {
	s := &DistributorServer{d: d}
	s.mux = newMux(func(rt *route) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			v, err := rt.serve(s, w, r)
			rt.answer(w, v, err)
		}
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *DistributorServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// HealthReport is the GET /v1/health body: overall status (degraded when
// any provider is down or its circuit not closed), the per-provider
// circuit-breaker and liveness view, the chunk-cache counters
// (hits/misses/evictions/bytes; capacity 0 means caching is disabled),
// the durability view (records appended, fsyncs, replay count and
// last-checkpoint age; enabled=false means in-memory metadata), and —
// when this distributor fronts a replicated cluster — each member's
// replication position, so a lagging or down secondary is visible
// instead of silently serving stale generations.
type HealthReport struct {
	Status      string                `json:"status"`
	Providers   []core.ProviderHealth `json:"providers"`
	Cache       core.CacheStats       `json:"cache"`
	WAL         core.WALHealth        `json:"wal"`
	Replication []core.ReplicaLag     `json:"replication,omitempty"`
}

// SetLagSource wires a replication-lag reporter (typically
// core.Cluster.Lag) into /v1/health. Call before serving; a nil fn
// removes the section.
func (s *DistributorServer) SetLagSource(fn func() []core.ReplicaLag) {
	s.lagSource = fn
}

func (s *DistributorServer) health(http.ResponseWriter, *http.Request) (any, error) {
	provs := s.d.Health()
	status := "ok"
	for _, p := range provs {
		if p.State != "closed" || p.Down {
			status = "degraded"
			break
		}
	}
	rep := HealthReport{Status: status, Providers: provs, Cache: s.d.CacheHealth(), WAL: s.d.WALHealth()}
	if s.lagSource != nil {
		rep.Replication = s.lagSource()
		for _, m := range rep.Replication {
			if m.Down || m.LagRecords > 0 {
				rep.Status = "degraded"
			}
		}
	}
	return rep, nil
}
