package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
)

// ShardProxy serves the DistributorServer wire surface in front of a
// sharded Client: clients keep speaking the single-distributor protocol
// while every data operation is routed to the shard owning its
// ⟨client, filename⟩ key. This is the deployment shape for clients that
// cannot embed the router; anything that can should use the Client
// directly and skip the extra hop. The proxy knows no operation: it
// ranges over the route table and handles each row by its class alone —
// an owner-routed request is located and relayed, and the other classes
// are the Client's: an every-shard request goes to each shard, a merged
// route is the Client's merge, and a per-shard route is refused with the
// shard list. Over one shard every row is relayed.
type ShardProxy struct {
	c   *Client
	mux *http.ServeMux
}

// NewShardProxy builds the proxy handler over a sharded client.
func NewShardProxy(c *Client) *ShardProxy {
	p := &ShardProxy{c: c}
	p.mux = newMux(func(rt *route) http.HandlerFunc {
		handle := p.forward
		switch {
		case len(c.urls) == 1: // the one shard answers every row
		case rt.class == everyShard:
			handle = p.fanOut
		case rt.class == mergedAnswer:
			handle = p.merged
		case rt.class == perShard:
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
// shard in turn, under the Client's idempotent-repair contract.
func (p *ShardProxy) fanOut(rt *route, w http.ResponseWriter, r *http.Request) {
	var whole json.RawMessage // decoded only so a malformed body is refused here, once
	body, err := decodeJSON(r, &whole)
	if err == nil {
		_, err = p.c.exchange(rt, fileReq{}, body)
	}
	rt.answer(w, nil, err)
}

// merged answers with the Client's merge of every shard's answer. The
// pairing lives here, not in a column of the table: a row that named a
// Client method would depend on the Client method that names the row.
func (p *ShardProxy) merged(rt *route, w http.ResponseWriter, _ *http.Request) {
	var v any
	var err error
	switch rt {
	case routeScrub:
		v, err = p.c.Scrub()
	case routeStats:
		v, err = p.c.Stats()
	case routeMetrics:
		v, err = p.c.Metrics()
	case routeHealth:
		v, err = p.c.HealthReport()
	default:
		err = fmt.Errorf("shard proxy: no merge rule for %s", rt.path)
	}
	rt.answer(w, v, err)
}

// refuse answers a per-shard route with the Client's refusal, as 421.
func (p *ShardProxy) refuse(rt *route, w http.ResponseWriter, _ *http.Request) {
	writeError(w, p.c.refusal(rt))
}

// locate answers locatePath with the router's decision for one file, as
// JSON. Purely local — no shard round-trip.
func (p *ShardProxy) locate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	writeJSON(w, p.c.Locate(q.Get("client"), q.Get("filename")))
}

// forward relays a request to the shard owning its file through
// httputil.ReverseProxy: method, path, query, body and end-to-end headers
// go out, status, headers and body come back. The routing keys come from
// the query, or are peeked from the JSON body, which is held under its
// 64 KiB cap and sent on as it arrived; every other body streams, so the
// proxy holds one transfer buffer, never the object, and parses no byte
// of a payload. A shard that cannot be reached is 502; a mid-body
// upstream failure aborts the downstream connection
// (http.ErrAbortHandler), so truncation stays detectable end-to-end.
func (p *ShardProxy) forward(rt *route, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := fileReq{Client: q.Get("client"), Filename: q.Get("filename")}
	if rt.keys == keysInBody {
		held, err := decodeJSON(r, &key)
		if err != nil {
			writeError(w, err)
			return
		}
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(held)), int64(len(held))
	}
	owner, err := url.Parse(p.c.owner(key.Client, key.Filename))
	if err != nil {
		unreachable(w, r, err)
		return
	}
	(&httputil.ReverseProxy{
		Rewrite:      func(pr *httputil.ProxyRequest) { pr.SetURL(owner) },
		Transport:    sharedTransport,
		ErrorHandler: unreachable,
	}).ServeHTTP(w, r)
}

// unreachable answers a request whose shard could not be reached.
func unreachable(w http.ResponseWriter, _ *http.Request, err error) {
	http.Error(w, "shard proxy: "+err.Error(), http.StatusBadGateway)
}
