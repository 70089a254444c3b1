package transport

import (
	"net"
	"net/http"
	"time"
)

// Connection pooling. http.DefaultTransport keeps only 2 idle
// connections per host (DefaultMaxIdleConnsPerHost), so a hedged read
// or a sharded fan-out that puts more than two concurrent requests on
// one distributor tears down and re-dials connections on every burst —
// extra RTTs and TIME_WAIT churn exactly on the latency-sensitive path.
// Every client this package creates with a nil *http.Client therefore
// shares one pooled transport sized for fan-out. The provider hop keeps
// a pool of its own per provider (provider_hop.go) under the same idle
// bound, and takes from a transport only its dialer and write size.

// poolMaxIdlePerHost bounds retained idle connections per distributor
// or provider endpoint. It needs to cover the largest realistic burst
// against a single host: hedged reads cap at the provider fleet size,
// and cloudbench drives up to a few hundred workers at one loopback
// distributor.
const poolMaxIdlePerHost = 256

// poolWriteBuffer sizes a request's write buffer so one request leaves
// in one write: a request line and its headers (a few hundred bytes,
// given 4 KiB here) plus the largest blob the default chunk policy makes,
// the 64 KiB PL0 chunk. With net/http's 4 KiB default a put is flushed in
// pieces — the headers and the body's first ~3.9 KiB, then the rest
// through the connection's ReadFrom, which allocates a fresh copy buffer
// per request. net/http holds such a buffer per pooled connection (~68
// KiB instead of 4 KiB); the provider hop takes one from bufpool for the
// length of a send (DESIGN.md §13 counts the connections a deployment
// holds).
const poolWriteBuffer = 64<<10 + 4<<10

// NewPooledTransport returns a transport tuned for this package's
// fan-out pattern: many short JSON/octet requests against a small, hot
// set of hosts. Callers that need custom TLS or proxies can start from
// this and override fields before wrapping it in an http.Client.
func NewPooledTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          1024,
		MaxIdleConnsPerHost:   poolMaxIdlePerHost,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
		WriteBufferSize:       poolWriteBuffer,
	}
}

// sharedTransport is the process-wide pool behind every default client.
// Sharing one transport (rather than one per NewClient call) is what
// lets the Clients and the shard proxy reuse each other's warm
// connections to the same host; a default provider dial uses its dialer.
var sharedTransport = NewPooledTransport()

// defaultHTTPClient wraps the shared pool with a per-use-case timeout.
func defaultHTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: sharedTransport}
}
