package transport

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mislead"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// dialCountingClient wraps an http.Client so every new TCP connect is
// counted via httptrace, independent of what the transport reuses.
type dialCountingClient struct {
	hc    *http.Client
	dials atomic.Int64
}

func (d *dialCountingClient) client() *http.Client {
	return &http.Client{
		Timeout: d.hc.Timeout,
		Transport: roundTripperFunc(func(req *http.Request) (*http.Response, error) {
			trace := &httptrace.ClientTrace{
				ConnectStart: func(network, addr string) { d.dials.Add(1) },
			}
			req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
			return d.hc.Transport.RoundTrip(req)
		}),
	}
}

type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestPooledTransportReusesConnections is the regression test for the
// connection-pool sizing fix: against a warm pool, a burst of
// sequential requests must open zero new TCP connections. The stock
// http.DefaultTransport keeps only 2 idle conns per host, so fan-out
// beyond that silently re-dials on every wave — the contrast subtest
// pins that failure mode so the fix stays observable.
func TestPooledTransportReusesConnections(t *testing.T) {
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mem, err := provider.New(provider.Info{
			Name: fmt.Sprintf("p%d", i), PL: privacy.High, CL: 1,
		}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.Add(mem); err != nil {
			t.Fatal(err)
		}
	}
	dist, err := core.New(core.Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewDistributorServer(dist))
	t.Cleanup(srv.Close)

	counting := &dialCountingClient{hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: NewPooledTransport(),
	}}
	cl := NewClient(srv.URL, counting.client())
	if err := cl.RegisterClient("warm"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddPassword("warm", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	// Warm the pool: run one concurrent wave so several conns exist.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = cl.Upload("warm", "pw", fmt.Sprintf("w%d", i), []byte("warmup payload"), privacy.High, UploadOptions{})
		}(i)
	}
	wg.Wait()

	counting.dials.Store(0)
	for i := 0; i < 32; i++ {
		if _, err := cl.GetFile("warm", "pw", fmt.Sprintf("w%d", i%8)); err != nil {
			t.Fatalf("warm get %d: %v", i, err)
		}
	}
	if n := counting.dials.Load(); n != 0 {
		t.Fatalf("warm pooled transport opened %d new connections, want 0", n)
	}

	t.Run("contrast: per-request transport re-dials", func(t *testing.T) {
		// A fresh transport per request can never reuse a connection —
		// the anti-pattern the shared pool exists to prevent.
		for i := 0; i < 4; i++ {
			cold := &dialCountingClient{hc: &http.Client{Transport: NewPooledTransport()}}
			c := NewClient(srv.URL, cold.client())
			if _, err := c.GetFile("warm", "pw", "w0"); err != nil {
				t.Fatal(err)
			}
			if cold.dials.Load() == 0 {
				t.Fatal("fresh transport reused a connection it cannot have")
			}
		}
	})
}

// writeCountingConn counts the Write calls made on a connection. It
// embeds only net.Conn, so the transport cannot reach the TCP
// connection's ReadFrom through it: every byte sent is one of the
// counted writes.
type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestProviderPutIsOneWrite pins the pooled transport's write buffer: a
// provider put of any blob the default chunk policy makes — the request
// line, its headers and the whole body — leaves in one write. With
// net/http's 4 KiB default the headers and the body's first bytes are
// flushed first and the rest follows through a per-request copy buffer:
// two writes for the smaller blobs, three for a 64 KiB chunk.
func TestProviderPutIsOneWrite(t *testing.T) {
	var writes atomic.Int64
	pool := NewPooledTransport()
	t.Cleanup(pool.CloseIdleConnections)
	dial := pool.DialContext
	pool.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return writeCountingConn{Conn: c, writes: &writes}, nil
	}
	mem, err := provider.New(provider.Info{Name: "p", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewProviderServer(mem))
	t.Cleanup(srv.Close)
	rp, err := DialProvider(srv.URL, &http.Client{Timeout: 10 * time.Second, Transport: pool})
	if err != nil {
		t.Fatal(err)
	}
	sizes := privacy.DefaultChunkSizes().SizeByLevel
	for _, bc := range []struct {
		name string
		size int
	}{
		{"4KiB", 4 << 10},
		{"PL3-chunk-25pct-decoys", mislead.InflatedLen(sizes[privacy.High], 0.25)},
		{"PL2-chunk", sizes[privacy.Moderate]},
		{"PL0-chunk", sizes[privacy.Public]},
	} {
		t.Run(bc.name, func(t *testing.T) {
			blob := patterned(bc.size)
			writes.Store(0)
			if err := rp.Put(bc.name, blob); err != nil {
				t.Fatal(err)
			}
			if n := writes.Load(); n != 1 {
				t.Fatalf("a %d-byte put took %d writes, want 1", bc.size, n)
			}
			if got, _ := mem.Get(bc.name); len(got) != bc.size {
				t.Fatalf("stored %d bytes, want %d", len(got), bc.size)
			}
		})
	}
}
