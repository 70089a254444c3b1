package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// ShardProxy serves the DistributorServer wire surface in front of a
// sharded System: clients keep speaking the single-distributor protocol
// while every data operation is routed to the shard owning its
// ⟨client, filename⟩ key. This is the deployment shape for clients that
// cannot embed the router; anything that can should use System directly
// and skip the extra hop. The proxy knows no operation: it ranges over
// the route table and handles each row by its class alone — an
// owner-routed request is located and forwarded verbatim, an every-shard
// request is forwarded to each shard, a merged route is System's merge,
// and a per-shard route is refused with the shard list.
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
	p := &ShardProxy{sys: sys, streamHTTP: &http.Client{Transport: sharedTransport}}
	p.mux = newMux(func(rt *route) http.HandlerFunc {
		handle := p.forward
		switch rt.class {
		case everyShard:
			handle = p.fanOut
		case mergedAnswer:
			handle = p.merged
		case perShard:
			handle = p.refuse
		}
		return func(w http.ResponseWriter, r *http.Request) { handle(rt, w, r) }
	})
	p.mux.HandleFunc("GET "+locatePath, p.locate)
	return p
}

// ServeHTTP implements http.Handler.
func (p *ShardProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

// fanOut relays an every-shard request's body as it arrived to each
// shard in turn, under System's idempotent-repair contract.
func (p *ShardProxy) fanOut(rt *route, w http.ResponseWriter, r *http.Request) {
	var whole json.RawMessage // decoded only so a malformed body is refused here, once
	body, err := decodeJSON(r, &whole)
	if err == nil {
		err = p.sys.eachShard(func(c *Client) error {
			_, err := c.send(rt, body)
			return idempotent(err)
		})
	}
	rt.answer(w, nil, err)
}

// merged answers with System's merge of every shard's answer. The
// pairing lives here, not in a column of the table: a row that named a
// System method would depend on the Client method that names the row.
func (p *ShardProxy) merged(rt *route, w http.ResponseWriter, _ *http.Request) {
	var v any
	var err error
	switch rt {
	case routeScrub:
		v, err = p.sys.Scrub()
	case routeStats:
		v, err = p.sys.Stats()
	case routeMetrics:
		v, err = p.sys.Metrics()
	case routeHealth:
		v = p.sys.HealthReport()
	default:
		err = fmt.Errorf("shard proxy: no merge rule for %s", rt.path)
	}
	rt.answer(w, v, err)
}

// refuse answers a per-shard route by name: the request carries a
// provider index or asks for tables keyed by one, and each shard numbers
// its own fleet, so there is no deployment-wide answer to merge.
func (p *ShardProxy) refuse(rt *route, w http.ResponseWriter, _ *http.Request) {
	http.Error(w, fmt.Sprintf("shard proxy: %s %s is per-shard (provider indices are per-shard); ask one shard directly: %s",
		rt.method, rt.path, strings.Join(p.sys.urls, ", ")), http.StatusMisdirectedRequest)
}

// locate answers locatePath with the router's decision for one file, as
// JSON. Purely local — no shard round-trip.
func (p *ShardProxy) locate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	writeJSON(w, p.sys.Locate(q.Get("client"), q.Get("filename")))
}

// forward relays an owner-routed request verbatim to the owning shard:
// same path, query, auth headers and declared length out; status,
// content headers, error code and body back. The routing keys come from
// the query, or are peeked from the JSON body, which is held under its
// 64 KiB cap and sent on as it arrived; every other body streams, so the
// proxy holds one transfer buffer, never the object, and parses no byte
// of a payload. A shard that cannot be reached is 502; a mid-body
// upstream failure aborts the downstream connection (chunked encoding's
// implicit end marker is how truncation stays detectable end-to-end).
func (p *ShardProxy) forward(rt *route, w http.ResponseWriter, r *http.Request) {
	var keys struct{ Client, Filename string }
	body, length := io.Reader(r.Body), r.ContentLength
	if rt.keys == keysInBody {
		held, err := decodeJSON(r, &keys)
		if err != nil {
			writeError(w, err)
			return
		}
		body, length = bytes.NewReader(held), int64(len(held))
	} else {
		q := r.URL.Query()
		keys.Client, keys.Filename = q.Get("client"), q.Get("filename")
	}
	target := p.sys.Locate(keys.Client, keys.Filename).ShardURL + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.ContentLength = length // so the shard sizes its buffer once
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
	for _, h := range []string{"Content-Type", "Content-Length", headerErrorCode} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		panic(http.ErrAbortHandler)
	}
}
