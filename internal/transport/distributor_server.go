package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/privacy"
)

// DistributorServer exposes a Cloud Data Distributor over HTTP — the
// surface clients use ("Clients do not interact with Cloud Providers
// directly rather via Cloud Data Distributor").
type DistributorServer struct {
	d   *core.Distributor
	mux *http.ServeMux
	// lagSource, when set, contributes the replication section of
	// /v1/health (see SetLagSource).
	lagSource func() []core.ReplicaLag
}

// NewDistributorServer wraps a distributor.
func NewDistributorServer(d *core.Distributor) *DistributorServer {
	s := &DistributorServer{d: d, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/clients", s.registerClient)
	s.mux.HandleFunc("POST /v1/passwords", s.addPassword)
	s.mux.HandleFunc("POST /v1/upload", s.upload)
	s.mux.HandleFunc("POST /v1/get_chunk", s.getChunk)
	s.mux.HandleFunc("POST /v1/get_file", s.getFile)
	s.mux.HandleFunc("POST /v1/get_snapshot", s.getSnapshot)
	s.mux.HandleFunc("POST /v1/update_chunk", s.updateChunk)
	s.mux.HandleFunc("POST /v1/remove_chunk", s.removeChunk)
	s.mux.HandleFunc("POST /v1/remove_file", s.removeFile)
	s.mux.HandleFunc("POST /v1/chunk_count", s.chunkCount)
	s.mux.HandleFunc("GET /v1/tables/providers", s.providerTable)
	s.mux.HandleFunc("GET /v1/tables/clients", s.clientTable)
	s.mux.HandleFunc("GET /v1/tables/chunks", s.chunkTable)
	s.mux.HandleFunc("POST /v1/get_range", s.getRange)
	s.mux.HandleFunc("POST /v1/stream/upload", s.streamUpload)
	s.mux.HandleFunc("GET /v1/stream/file", s.streamFile)
	s.mux.HandleFunc("POST /v1/admin/scrub", s.scrub)
	s.mux.HandleFunc("POST /v1/admin/decommission", s.decommission)
	s.mux.HandleFunc("GET /v1/stats", s.stats)
	s.mux.HandleFunc("GET /v1/metrics", s.metrics)
	s.mux.HandleFunc("GET /v1/health", s.health)
	return s
}

// ServeHTTP implements http.Handler.
func (s *DistributorServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// coreStatus maps distributor errors onto HTTP statuses; the client maps
// them back, so error identity survives the wire.
func coreStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrAuth):
		return http.StatusForbidden
	case errors.Is(err, core.ErrNoSuchFile), errors.Is(err, core.ErrNoSuchChunk), errors.Is(err, core.ErrNoSnapshot):
		return http.StatusNotFound
	case errors.Is(err, core.ErrExists), errors.Is(err, core.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, core.ErrRange):
		return http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, core.ErrPlacement):
		return http.StatusInsufficientStorage
	case errors.Is(err, core.ErrUnavailable), errors.Is(err, core.ErrCircuitOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrConfig):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// maxJSONRequest bounds a JSON request body. Payloads travel as octets
// (write.go), so what is left in JSON is names, passwords and integers.
const maxJSONRequest = 64 << 10

// decode reads a JSON request under maxJSONRequest: a declared excess is
// refused unread, an undeclared one once the cap is hit, both with 413.
func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	var err error
	tooBig := r.ContentLength > maxJSONRequest
	if !tooBig {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONRequest)).Decode(&v)
		var cut *http.MaxBytesError
		tooBig = errors.As(err, &cut)
	}
	switch {
	case tooBig:
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxJSONRequest), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
	default:
		return v, true
	}
	return v, false
}

// Wire DTOs of the JSON routes.

type clientReq struct {
	Name string `json:"name"`
}

type passwordReq struct {
	Client   string `json:"client"`
	Password string `json:"password"`
	PL       int    `json:"pl"`
}

type chunkReq struct {
	Client   string `json:"client"`
	Password string `json:"password"`
	Filename string `json:"filename"`
	Serial   int    `json:"serial"`
}

type fileReq struct {
	Client   string `json:"client"`
	Password string `json:"password"`
	Filename string `json:"filename"`
}

func (s *DistributorServer) registerClient(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[clientReq](w, r)
	if !ok {
		return
	}
	if err := s.d.RegisterClient(req.Name); err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *DistributorServer) addPassword(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[passwordReq](w, r)
	if !ok {
		return
	}
	if err := s.d.AddPassword(req.Client, req.Password, privacy.Level(req.PL)); err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *DistributorServer) getChunk(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[chunkReq](w, r)
	if !ok {
		return
	}
	data, err := s.d.GetChunk(req.Client, req.Password, req.Filename, req.Serial)
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *DistributorServer) getFile(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[fileReq](w, r)
	if !ok {
		return
	}
	data, err := s.d.GetFile(req.Client, req.Password, req.Filename)
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *DistributorServer) getSnapshot(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[chunkReq](w, r)
	if !ok {
		return
	}
	data, err := s.d.GetSnapshot(req.Client, req.Password, req.Filename, req.Serial)
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *DistributorServer) removeChunk(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[chunkReq](w, r)
	if !ok {
		return
	}
	if err := s.d.RemoveChunk(req.Client, req.Password, req.Filename, req.Serial); err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *DistributorServer) removeFile(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[fileReq](w, r)
	if !ok {
		return
	}
	if err := s.d.RemoveFile(req.Client, req.Password, req.Filename); err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *DistributorServer) chunkCount(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[fileReq](w, r)
	if !ok {
		return
	}
	n, err := s.d.ChunkCount(req.Client, req.Password, req.Filename)
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	writeJSON(w, map[string]int{"chunks": n})
}

type rangeReq struct {
	Client   string `json:"client"`
	Password string `json:"password"`
	Filename string `json:"filename"`
	Offset   int    `json:"offset"`
	Length   int    `json:"length"`
}

func (s *DistributorServer) getRange(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[rangeReq](w, r)
	if !ok {
		return
	}
	data, err := s.d.GetRange(req.Client, req.Password, req.Filename, req.Offset, req.Length)
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *DistributorServer) scrub(w http.ResponseWriter, _ *http.Request) {
	rep, err := s.d.Scrub()
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	writeJSON(w, rep)
}

type decommissionReq struct {
	ProviderIndex int `json:"providerIndex"`
}

func (s *DistributorServer) decommission(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[decommissionReq](w, r)
	if !ok {
		return
	}
	rep, err := s.d.Decommission(req.ProviderIndex)
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	writeJSON(w, rep)
}

func (s *DistributorServer) providerTable(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.ProviderTable())
}

func (s *DistributorServer) clientTable(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.ClientTable())
}

func (s *DistributorServer) chunkTable(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.ChunkTable())
}

func (s *DistributorServer) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.Stats())
}

func (s *DistributorServer) metrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.d.Metrics())
}

// HealthReport is the GET /v1/health body: overall status, the
// per-provider circuit-breaker view, the chunk-cache counters
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

func (s *DistributorServer) health(w http.ResponseWriter, _ *http.Request) {
	provs := s.d.Health()
	status := "ok"
	for _, p := range provs {
		if p.State != "closed" {
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
	writeJSON(w, rep)
}
