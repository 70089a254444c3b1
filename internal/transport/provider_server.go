// Package transport puts the paper's architecture on the network: cloud
// providers and the Cloud Data Distributor become HTTP/JSON services, so
// the system runs as real client/server processes the way the paper's
// prototype did ("We have used PCs ... as Cloud Providers. Again we have
// used PCs ... as Cloud Data Distributor").
//
// The provider API mirrors the SOAP/REST-style S3 interface the paper
// cites: put/get/delete keyed by virtual id, a multi-get and a
// multi-delete of several ids in one round trip each (provider_batch.go),
// plus introspection and failure-injection endpoints used by the
// evaluation harness.
package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/bufpool"
	"repro/internal/provider"
)

// maxBlobBytes bounds request bodies to keep a misbehaving client from
// exhausting a provider's memory (applied through maxBlobRead).
const maxBlobBytes = 64 << 20

// ProviderServer exposes one provider over HTTP.
type ProviderServer struct {
	p   provider.Provider
	mux *http.ServeMux
}

// NewProviderServer wraps a provider.
func NewProviderServer(p provider.Provider) *ProviderServer {
	s := &ProviderServer{p: p, mux: http.NewServeMux()}
	s.mux.HandleFunc("PUT /v1/chunks/{key}", s.putChunk)
	s.mux.HandleFunc("GET /v1/chunks/{key}", s.getChunk)
	s.mux.HandleFunc("DELETE /v1/chunks/{key}", s.deleteChunk)
	s.mux.HandleFunc("POST "+multiGetPath, s.getChunks)
	s.mux.HandleFunc("POST "+multiDeletePath, s.deleteChunks)
	s.mux.HandleFunc("GET /v1/info", s.info)
	s.mux.HandleFunc("GET /v1/keys", s.keys)
	s.mux.HandleFunc("GET /v1/dump", s.dump)
	s.mux.HandleFunc("GET /v1/usage", s.usage)
	s.mux.HandleFunc("GET /v1/health", s.health)
	s.mux.HandleFunc("POST /v1/outage", s.outage)
	return s
}

// ServeHTTP implements http.Handler.
func (s *ProviderServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func providerStatus(err error) int {
	switch {
	case errors.Is(err, provider.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, provider.ErrOutage):
		return http.StatusServiceUnavailable
	case errors.Is(err, provider.ErrInjected):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// putChunk reads the blob into a pooled buffer and returns it once Put
// has: providers copy on Put, the contract core's pooled stripe buffers
// rest on too, so a put allocates only the provider's own copy.
func (s *ProviderServer) putChunk(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body, err := readBodyInto(r.Body, r.ContentLength, maxBlobRead, bufpool.Get)
	if errors.Is(err, errOversizeBody) {
		writeText(w, http.StatusRequestEntityTooLarge, "blob too large")
		return
	}
	if err != nil {
		writeText(w, http.StatusBadRequest, err.Error())
		return
	}
	defer bufpool.Put(body)
	if err := s.p.Put(key, body); err != nil {
		writeText(w, providerStatus(err), err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// getChunk answers from a view of the stored blob where the provider
// offers one (provider.View): the write copies it onto the wire, so a get
// allocates nothing for the blob on this side.
func (s *ProviderServer) getChunk(w http.ResponseWriter, r *http.Request) {
	data, err := provider.View(s.p, r.PathValue("key"))
	if err != nil {
		writeText(w, providerStatus(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// Declared, so the reader allocates the blob once (see readBody);
	// net/http would otherwise chunk anything past its 2 KiB buffer.
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

func (s *ProviderServer) deleteChunk(w http.ResponseWriter, r *http.Request) {
	if err := s.p.Delete(r.PathValue("key")); err != nil {
		writeText(w, providerStatus(err), err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeJSON answers with v as one JSON document of declared length — as
// every ProviderServer reply has one, since the provider hop's client
// reads no other. The body is what json.Encoder writes: the document and
// a newline.
func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeText(w, http.StatusInternalServerError, err.Error())
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// writeText answers with status and msg as http.Error does, but with the
// length declared: net/http would chunk a message past its 2 KiB buffer
// (a not-found error quotes its key, which may be that long), and the
// provider hop reads no reply of undeclared length.
func writeText(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(msg)+1))
	w.WriteHeader(status)
	_, _ = io.WriteString(w, msg+"\n")
}

// infoDTO is the wire form of provider.Info.
type infoDTO struct {
	Name string `json:"name"`
	PL   int    `json:"pl"`
	CL   int    `json:"cl"`
}

func (s *ProviderServer) info(w http.ResponseWriter, _ *http.Request) {
	i := s.p.Info()
	writeJSON(w, infoDTO{Name: i.Name, PL: int(i.PL), CL: int(i.CL)})
}

func (s *ProviderServer) keys(w http.ResponseWriter, _ *http.Request) {
	keys := s.p.Keys()
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, keys)
}

func (s *ProviderServer) dump(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.p.Dump())
}

func (s *ProviderServer) usage(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.p.Usage())
}

func (s *ProviderServer) health(w http.ResponseWriter, _ *http.Request) {
	if s.p.Down() {
		writeText(w, http.StatusServiceUnavailable, "outage")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *ProviderServer) outage(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Down bool `json:"down"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeText(w, http.StatusBadRequest, err.Error())
		return
	}
	s.p.SetOutage(req.Down)
	w.WriteHeader(http.StatusNoContent)
}
