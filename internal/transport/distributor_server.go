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
// last-checkpoint age; enabled=false means in-memory metadata).
type HealthReport struct {
	Status    string                `json:"status"`
	Providers []core.ProviderHealth `json:"providers"`
	Cache     core.CacheStats       `json:"cache"`
	WAL       core.WALHealth        `json:"wal"`
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
	return HealthReport{Status: status, Providers: provs, Cache: s.d.CacheHealth(), WAL: s.d.WALHealth()}, nil
}
