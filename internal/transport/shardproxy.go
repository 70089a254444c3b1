package transport

import (
	"io"
	"net/http"

	"repro/internal/privacy"
)

// ShardProxy serves the DistributorServer wire surface in front of a
// sharded System: clients keep speaking the single-distributor protocol
// while every data operation is routed to the shard owning its
// ⟨client, filename⟩ key. This is the deployment shape for clients that
// cannot embed the router; anything that can should use System directly
// and skip the extra hop. Account operations fan out, aggregate
// endpoints merge across shards, and the streaming endpoints forward
// raw bodies end-to-end so the proxy never materializes a large object.
type ShardProxy struct {
	sys *System
	mux *http.ServeMux
	// streamHTTP has no overall timeout: large-object streams are
	// legitimately long-lived. Connection reuse still comes from the
	// shared pooled transport.
	streamHTTP *http.Client
}

// NewShardProxy builds the proxy handler over a sharded system.
func NewShardProxy(sys *System) *ShardProxy {
	p := &ShardProxy{
		sys:        sys,
		mux:        http.NewServeMux(),
		streamHTTP: &http.Client{Transport: sharedTransport},
	}
	p.mux.HandleFunc("POST /v1/clients", p.registerClient)
	p.mux.HandleFunc("POST /v1/passwords", p.addPassword)
	p.mux.HandleFunc("POST /v1/upload", p.forwardStream)
	p.mux.HandleFunc("POST /v1/get_chunk", p.getChunk)
	p.mux.HandleFunc("POST /v1/get_file", p.getFile)
	p.mux.HandleFunc("POST /v1/get_snapshot", p.getSnapshot)
	p.mux.HandleFunc("POST /v1/update_chunk", p.forwardStream)
	p.mux.HandleFunc("POST /v1/remove_chunk", p.removeChunk)
	p.mux.HandleFunc("POST /v1/remove_file", p.removeFile)
	p.mux.HandleFunc("POST /v1/chunk_count", p.chunkCount)
	p.mux.HandleFunc("POST /v1/get_range", p.getRange)
	p.mux.HandleFunc("POST /v1/stream/upload", p.forwardStream)
	p.mux.HandleFunc("GET /v1/stream/file", p.forwardStream)
	p.mux.HandleFunc("POST /v1/admin/scrub", p.scrub)
	p.mux.HandleFunc("GET /v1/stats", p.stats)
	p.mux.HandleFunc("GET /v1/health", p.health)
	p.mux.HandleFunc("GET /v1/locate", p.locate)
	return p
}

// ServeHTTP implements http.Handler.
func (p *ShardProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

// proxyErr maps an error from the downstream shard (already a core
// error, reconstructed by the shard's Client) back onto the wire.
func proxyErr(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), coreStatus(err))
}

func (p *ShardProxy) registerClient(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[clientReq](w, r)
	if !ok {
		return
	}
	if err := p.sys.RegisterClient(req.Name); err != nil {
		proxyErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (p *ShardProxy) addPassword(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[passwordReq](w, r)
	if !ok {
		return
	}
	if err := p.sys.AddPassword(req.Client, req.Password, privacy.Level(req.PL)); err != nil {
		proxyErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (p *ShardProxy) getChunk(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[chunkReq](w, r)
	if !ok {
		return
	}
	data, err := p.sys.GetChunk(req.Client, req.Password, req.Filename, req.Serial)
	if err != nil {
		proxyErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (p *ShardProxy) getFile(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[fileReq](w, r)
	if !ok {
		return
	}
	data, err := p.sys.GetFile(req.Client, req.Password, req.Filename)
	if err != nil {
		proxyErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (p *ShardProxy) getSnapshot(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[chunkReq](w, r)
	if !ok {
		return
	}
	data, err := p.sys.GetSnapshot(req.Client, req.Password, req.Filename, req.Serial)
	if err != nil {
		proxyErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (p *ShardProxy) removeChunk(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[chunkReq](w, r)
	if !ok {
		return
	}
	if err := p.sys.RemoveChunk(req.Client, req.Password, req.Filename, req.Serial); err != nil {
		proxyErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (p *ShardProxy) removeFile(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[fileReq](w, r)
	if !ok {
		return
	}
	if err := p.sys.RemoveFile(req.Client, req.Password, req.Filename); err != nil {
		proxyErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (p *ShardProxy) chunkCount(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[fileReq](w, r)
	if !ok {
		return
	}
	n, err := p.sys.ChunkCount(req.Client, req.Password, req.Filename)
	if err != nil {
		proxyErr(w, err)
		return
	}
	writeJSON(w, map[string]int{"chunks": n})
}

func (p *ShardProxy) getRange(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[rangeReq](w, r)
	if !ok {
		return
	}
	data, err := p.sys.GetRange(req.Client, req.Password, req.Filename, req.Offset, req.Length)
	if err != nil {
		proxyErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (p *ShardProxy) scrub(w http.ResponseWriter, _ *http.Request) {
	rep, err := p.sys.Scrub()
	if err != nil {
		proxyErr(w, err)
		return
	}
	writeJSON(w, rep)
}

func (p *ShardProxy) stats(w http.ResponseWriter, _ *http.Request) {
	st, err := p.sys.Stats()
	if err != nil {
		proxyErr(w, err)
		return
	}
	writeJSON(w, st)
}

// health merges every shard's health: overall status degrades if any
// shard does (or is unreachable), provider and replication rows
// concatenate in shard order.
func (p *ShardProxy) health(w http.ResponseWriter, _ *http.Request) {
	out := HealthReport{Status: "ok"}
	for i := 0; i < p.sys.Shards(); i++ {
		rep, err := p.sys.Shard(i).HealthReport()
		if err != nil {
			out.Status = "degraded"
			continue
		}
		if rep.Status != "ok" {
			out.Status = "degraded"
		}
		out.Providers = append(out.Providers, rep.Providers...)
		out.Replication = append(out.Replication, rep.Replication...)
	}
	writeJSON(w, out)
}

// locate is GET /v1/locate?client=C&filename=F: the router's decision
// for one file, as JSON. Purely local — no shard round-trip.
func (p *ShardProxy) locate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	loc, err := p.sys.Locate(q.Get("client"), q.Get("filename"))
	if err != nil {
		proxyErr(w, err)
		return
	}
	writeJSON(w, loc)
}

// forwardStream relays a request whose routing keys are in its query —
// the payload-carrying routes of write.go and the streamed read —
// verbatim to the owning shard: same path, query, auth headers and
// declared length, with both bodies streamed. The proxy holds one
// transfer buffer, never the object, and parses no byte of it. A
// mid-body upstream failure aborts the downstream connection (chunked
// encoding's implicit end marker is how truncation stays detectable
// end-to-end).
func (p *ShardProxy) forwardStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	loc, err := p.sys.Locate(q.Get("client"), q.Get("filename"))
	if err != nil {
		proxyErr(w, err)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		p.sys.urls[loc.Shard]+r.URL.Path+"?"+r.URL.RawQuery, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.ContentLength = r.ContentLength // so the shard sizes its buffer once
	for _, h := range []string{headerPassword, headerEncryptKey, "Content-Type"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := p.streamHTTP.Do(req)
	if err != nil {
		http.Error(w, "shard proxy: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		panic(http.ErrAbortHandler)
	}
}
