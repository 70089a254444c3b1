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
