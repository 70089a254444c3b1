package transport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// requestCounter counts the requests a provider server sees, by method
// and path.
type requestCounter struct {
	mu   sync.Mutex
	seen map[string]int
}

func (c *requestCounter) reset() {
	c.mu.Lock()
	clear(c.seen)
	c.mu.Unlock()
}

func (c *requestCounter) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprint(c.seen)
}

// countedProviderPair is newProviderPair with the server's requests
// counted.
func countedProviderPair(t *testing.T) (*provider.MemProvider, *RemoteProvider, *requestCounter) {
	t.Helper()
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counter := &requestCounter{seen: map[string]int{}}
	inner := NewProviderServer(mem)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		counter.mu.Lock()
		counter.seen[r.Method+" "+r.URL.Path]++
		counter.mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	remote, err := DialProvider(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mem, remote, counter
}

// hangUp serves a provider but hangs up on the first n requests to a
// path it is told to fail — it takes the connection and closes it,
// answering nothing — and counts every request per path.
type hangUp struct {
	inner http.Handler

	mu    sync.Mutex
	fails map[string]int
	calls map[string]int
}

func (h *hangUp) failNext(path string, n int) {
	h.mu.Lock()
	h.fails[path] = n
	h.mu.Unlock()
}

func (h *hangUp) attempts(path string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls[path]
}

func (h *hangUp) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.calls[r.URL.Path]++
	n := h.fails[r.URL.Path]
	if n > 0 {
		h.fails[r.URL.Path] = n - 1
	}
	h.mu.Unlock()
	if n == 0 {
		h.inner.ServeHTTP(w, r)
		return
	}
	if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
		conn.Close()
	}
}

// hangUpProvider serves mem behind a hangUp with keep-alives off, so
// every call comes on a connection of its own and each hang-up is a
// fresh connection's network failure, which withNetRetry backs off from.
// (A reused connection that dies before its reply is resent at once;
// TestStaleConnectionIsRedialled covers that.)
func hangUpProvider(t *testing.T, mem provider.Provider) (*RemoteProvider, *hangUp) {
	t.Helper()
	h := &hangUp{inner: NewProviderServer(mem), fails: map[string]int{}, calls: map[string]int{}}
	srv := httptest.NewUnstartedServer(h)
	srv.Config.SetKeepAlivesEnabled(false)
	srv.Start()
	t.Cleanup(srv.Close)
	remote, err := DialProvider(srv.URL, &http.Client{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return remote, h
}

// TestStaleConnectionIsRedialled: a provider that closes its idle
// connections between two calls — a restart, its idle timeout — costs
// the next call one fresh connection, sent at once: no backoff sleep, no
// error, and the provider never reads down.
func TestStaleConnectionIsRedialled(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "S", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(NewProviderServer(mem))
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	remote, err := DialProvider(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	remote.retry.sleep = func(d time.Duration) { t.Errorf("backoff sleep of %v after a stale connection", d) }
	blob := bytes.Repeat([]byte{4}, 10<<10)
	const rounds = 4
	for i := 0; i < rounds; i++ {
		srv.CloseClientConnections()
		if err := remote.Put(fmt.Sprint("k", i), blob); err != nil {
			t.Fatalf("put %d over a closed idle connection: %v", i, err)
		}
		if remote.Down() {
			t.Fatalf("put %d: the provider reads down", i)
		}
		got, err := remote.Get(fmt.Sprint("k", i))
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("get %d: %d bytes, %v", i, len(got), err)
		}
	}
	if n := conns.Load(); n != 1+rounds {
		t.Fatalf("%d connections for the dial and %d rounds, want %d", n, rounds, 1+rounds)
	}
}

// TestHopHoldsNoGoroutinePerConnection: the provider's idle connections
// cost no goroutine on the client side. Eight concurrent puts leave
// eight pooled connections, and the goroutines that remain are the
// server's, one per connection — net/http's client kept a read loop and a
// write loop for each as well.
func TestHopHoldsNoGoroutinePerConnection(t *testing.T) {
	const n = 8
	mem, err := provider.New(provider.Info{Name: "G", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner := NewProviderServer(mem)
	var arrived sync.WaitGroup
	arrived.Add(n)
	release := make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			arrived.Done()
			<-release // every put holds its own connection until all have arrived
		}
		inner.ServeHTTP(w, r)
	}))
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	remote, err := DialProvider(srv.URL, nil) // keeps up to poolMaxIdlePerHost idle
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var puts sync.WaitGroup
	for i := 0; i < n; i++ {
		puts.Add(1)
		go func() {
			defer puts.Done()
			if err := remote.Put(fmt.Sprint("k", i), []byte("v")); err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait()
	close(release)
	puts.Wait()
	if c := conns.Load(); c != n {
		t.Fatalf("%d connections, want %d (the dial's and %d more)", c, n, n-1)
	}
	// n-1 new connections, each with one server goroutine.
	var grown int
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if grown = runtime.NumGoroutine() - before; grown <= n || time.Now().After(deadline) {
			break
		}
	}
	if grown > n {
		t.Fatalf("%d goroutines more with %d connections idle, want at most %d (the server's)", grown, n, n)
	}
}

// TestProviderRepliesDeclareLength: every reply a ProviderServer sends
// has a Content-Length, a listing past net/http's 2 KiB auto-length
// buffer included, because the provider hop's client reads no reply to
// the end of its connection.
func TestProviderRepliesDeclareLength(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "L", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := mem.Put(fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewProviderServer(mem))
	t.Cleanup(srv.Close)
	// A not-found error quotes its key: one of 3 KiB makes a message past
	// net/http's 2 KiB buffer, which http.Error would have chunked.
	long := chunkPath + strings.Repeat("m", 3<<10)
	for _, route := range []string{
		"GET /v1/info", "GET /v1/keys", "GET /v1/dump", "GET /v1/usage", "GET /v1/health",
		"GET " + chunkPath + "key-0001", "GET " + chunkPath + "missing", "GET " + long, "DELETE " + long,
	} {
		method, path, _ := strings.Cut(route, " ")
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%.60s: status %d, declared %d, sent %d bytes, transfer encoding %v", route, resp.StatusCode, resp.ContentLength, len(body), resp.TransferEncoding)
		}
	}
}

// TestProviderRequestHeadIsFixed pins what a provider reads in a
// request's head: the request line, Host and Content-Length, on every
// call the hop makes — no header that could tie a chunk to a file, a
// tenant or the software that sent it. The server moves Host to r.Host,
// so every request's header names must be exactly Content-Length.
func TestProviderRequestHeadIsFixed(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "H", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inner := NewProviderServer(mem)
	var mu sync.Mutex
	seen := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var names []string
		for name := range r.Header {
			names = append(names, name)
		}
		sort.Strings(names)
		route := r.Method + " " + r.URL.Path
		if len(names) != 1 || names[0] != "Content-Length" {
			t.Errorf("%s: header names %v, want [Content-Length]", route, names)
		}
		mu.Lock()
		seen[route] = true
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	remote, err := DialProvider(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Get("k"); err != nil {
		t.Fatal(err)
	}
	remote.GetMany([]string{"k", "nope"})
	remote.DeleteMany([]string{"nope"})
	if err := remote.Delete("k"); err != nil {
		t.Fatal(err)
	}
	remote.Probe()
	remote.SetOutage(false)
	remote.Keys()
	remote.Dump()
	remote.Usage()
	want := []string{
		"GET /v1/info", "PUT " + chunkPath + "k", "GET " + chunkPath + "k", "DELETE " + chunkPath + "k",
		"POST " + multiGetPath, "POST " + multiDeletePath, "GET /v1/health", "POST /v1/outage",
		"GET /v1/keys", "GET /v1/dump", "GET /v1/usage",
	}
	mu.Lock()
	defer mu.Unlock()
	for _, route := range want {
		if !seen[route] {
			t.Errorf("%s never reached the provider", route)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("routes seen %v, want %v", seen, want)
	}
}

// replayConn is a provider connection that sends one canned reply, all
// of it in the first read, and takes whatever is written to it.
type replayConn struct {
	net.Conn // nil: only the methods below are called
	reply    []byte
	closed   bool
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.reply) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.reply)
	c.reply = c.reply[n:]
	return n, nil
}

func (c *replayConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *replayConn) Close() error                     { c.closed = true; return nil }
func (c *replayConn) SetDeadline(time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzHopReply answers a Get with a hostile reply — a status line, a
// Content-Length ("none" sends none), more header lines, and a body of
// which send bytes go out — and checks what the exchange makes of it:
// it never panics; a 2xx it accepts is a body no longer than the cap and
// byte for byte what net/http's own reply parser reads from the same
// bytes (so never short, never over-long), and never one net/http reads
// with a transfer encoding; an error reply's message is at most
// maxErrorText bytes; and a connection goes back to the pool only with
// nothing of the reply left unread. The whole reply fits the
// read buffer, so everything the peer sent has arrived when the exchange
// decides.
func FuzzHopReply(f *testing.F) {
	f.Add("HTTP/1.1 200 OK", "5", "", []byte("hello"), 5)
	f.Add("HTTP/1.1 404 Not Found", "20", "Content-Type: text/plain\r\n", []byte("provider: not found\n"), 20)
	f.Add("HTTP/1.1 204 No Content", "none", "", []byte{}, 0)
	f.Add("HTTP/1.1 2xx OK", "5", "", []byte("hello"), 5)
	f.Add("HTTP/1.0 200 OK", "5", "", []byte("hello"), 5)
	f.Add("HTTP/1.1 200 OK", "-1", "", []byte("hello"), 5)
	f.Add("HTTP/1.1 200 OK", "5", "Content-Length: 5\r\n", []byte("hello"), 5)
	f.Add("HTTP/1.1 200 OK", "5", "Content-Length: 3\r\n", []byte("hello"), 5)
	f.Add("HTTP/1.1 200 OK", "99999999999999999999", "", []byte("hello"), 5)
	f.Add("HTTP/1.1 200 OK", "2048", "", []byte("hello"), 5)
	f.Add("HTTP/1.1 200 OK", "none", "Transfer-Encoding: chunked\r\n", []byte("5\r\nhello\r\n0\r\n\r\n"), 15)
	f.Add("HTTP/1.1 200 OK", "5", "Transfer-Encoding: chunked\r\n", []byte("5\r\nhello\r\n0\r\n\r\n"), 15)
	f.Add("HTTP/1.1 200 OK", "none", "Transfer-Encoding: chunked\r\n", []byte("fff\r\nhello"), 10)
	f.Add("HTTP/1.1 200 OK", "10", "", []byte("hello"), 5)
	f.Add("HTTP/1.1 200 OK", "5", "Connection: close\r\n", []byte("hello"), 5)
	f.Add("HTTP/1.1 200 OK", "5", "", []byte("helloHTTP/1.1 200 OK\r\n"), 22)
	f.Add("HTTP/1.1 200 OK", "none", "", []byte("hello"), 5)
	f.Add("HTTP/1.1 100 Continue", "none", "", []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"), 38)
	f.Add("HTTP/1.1 200 OK", "5", " folded: line\r\nno colon\r\n", []byte("hello"), 5)
	old := maxBlobRead
	maxBlobRead = 1 << 10
	f.Cleanup(func() { maxBlobRead = old })
	f.Fuzz(func(t *testing.T, status, declared, headers string, body []byte, send int) {
		send = min(max(send, 0), len(body))
		head := status + "\r\n"
		if declared != "none" {
			head += "Content-Length: " + declared + "\r\n"
		}
		reply := head + headers + "\r\n" + string(body[:send])
		if len(reply) > hopReadBuffer {
			return
		}
		conn := &replayConn{reply: []byte(reply)}
		h := &hop{host: "p", addr: "p", dial: func(context.Context, string, string) (net.Conn, error) { return conn, nil }}
		st, got, err := h.exchange(&hopRequest{method: http.MethodGet, path: chunkPath, key: "k", limit: maxBlobRead, get: bufpool.Get})

		if len(h.idle) > 0 {
			if st == 0 || err != nil || conn.closed || len(conn.reply) != 0 || h.idle[0].r.Buffered() != 0 {
				t.Fatalf("pooled a connection after status %d, %v: closed %v, %d bytes unread, %d buffered",
					st, err, conn.closed, len(conn.reply), h.idle[0].r.Buffered())
			}
		} else if !conn.closed {
			t.Fatal("a connection neither pooled nor closed")
		}
		if st == 0 || err != nil {
			return
		}
		if st/100 != 2 {
			if len(got) > maxErrorText {
				t.Fatalf("status %d: a %d-byte message", st, len(got))
			}
			return
		}
		if int64(len(got)) > maxBlobRead {
			t.Fatalf("a %d-byte body past the %d-byte cap", len(got), maxBlobRead)
		}
		resp, rerr := http.ReadResponse(bufio.NewReader(strings.NewReader(reply)), &http.Request{Method: http.MethodGet})
		if rerr != nil {
			return // net/http refuses what the exchange took: header syntax it checks and the exchange ignores
		}
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("status %d: accepted a reply net/http reads with transfer encoding %v", st, resp.TransferEncoding)
		}
		want, rerr := io.ReadAll(resp.Body)
		if rerr != nil || resp.StatusCode != st || !bytes.Equal(got, want) {
			t.Fatalf("status %d, %d bytes %.40q; net/http reads status %d, %d bytes %.40q, %v", st, len(got), got, resp.StatusCode, len(want), want, rerr)
		}
	})
}
