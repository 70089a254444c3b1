package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// memDistributor is an in-memory distributor with account a/pw, for
// tests that drive the server handler directly.
func memDistributor(t testing.TB, providers int) *core.Distributor {
	t.Helper()
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < providers; i++ {
		mem, err := provider.New(provider.Info{Name: fmt.Sprintf("m%d", i), PL: privacy.High, CL: 1}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.Add(mem); err != nil {
			t.Fatal(err)
		}
	}
	d, err := core.New(core.Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("a"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("a", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	return d
}

func csvRows(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,real,%04d\n", i, i*3)
	}
	return b.Bytes()
}

// TestMisleadLinesTravelOnEveryWriteRoute: line decoys used to be dropped
// without an error by UploadFrom (the stream route had no way to carry
// them), leaving a file the caller believed defended with none. They now
// ride the preamble of every upload, streamed or from a slice, through
// every face —
// a plain Client, a sharded Client and a Client behind a ShardProxy,
// which relays the preamble without parsing it.
func TestMisleadLinesTravelOnEveryWriteRoute(t *testing.T) {
	data := csvRows(2500) // several PL3 chunks
	opts := UploadOptions{MisleadLines: [][]byte{[]byte("7,decoy,0000\n"), {}, []byte("no newline")}}

	// The Chunk Table names no files, so each face gets a deployment of
	// its own and every row in it belongs to the two uploads below.
	tablesOf := func(dists []*core.Distributor) func() ([]core.ChunkRow, error) {
		return func() ([]core.ChunkRow, error) {
			var rows []core.ChunkRow
			for _, d := range dists {
				rows = append(rows, d.ChunkTable()...)
			}
			return rows, nil
		}
	}
	single, _ := distributorFixture(t, 5)
	sys, sysDists := shardFixture(t, 3, 4)
	proxied, proxyDists := shardFixture(t, 3, 4)
	proxy := httptest.NewServer(NewShardProxy(proxied))
	t.Cleanup(proxy.Close)

	for _, face := range []struct {
		name string
		api  faceAPI
		rows func() ([]core.ChunkRow, error)
	}{
		{"Client", single, single.ChunkTable},
		{"System", sys, tablesOf(sysDists)},
		{"ShardProxy", NewClient(proxy.URL, proxy.Client()), tablesOf(proxyDists)},
	} {
		t.Run(face.name, func(t *testing.T) {
			if err := face.api.RegisterClient("carol"); err != nil {
				t.Fatal(err)
			}
			if err := face.api.AddPassword("carol", "pw", privacy.High); err != nil {
				t.Fatal(err)
			}
			streamed, err := face.api.UploadFrom("carol", "pw", "streamed", bytes.NewReader(data), privacy.High, opts)
			if err != nil {
				t.Fatal(err)
			}
			buffered, err := face.api.Upload("carol", "pw", "buffered", data, privacy.High, opts)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := face.rows()
			if err != nil {
				t.Fatal(err)
			}
			if want := streamed.Chunks + buffered.Chunks; len(rows) != want || streamed.Chunks < 2 {
				t.Fatalf("%d chunk rows for %d+%d chunks", len(rows), streamed.Chunks, buffered.Chunks)
			}
			for _, r := range rows {
				if r.MisleadCount == 0 {
					t.Errorf("chunk %s stored without decoys", r.VirtualID)
				}
			}
			for _, f := range []string{"streamed", "buffered"} {
				got, err := face.api.GetFile("carol", "pw", f)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("%s does not round-trip byte-exact: %v", f, err)
				}
			}
		})
	}
}

// TestWriteRoutesRefuseBadBodies drives the two octet routes through the
// handler, where a request can lie about itself. On both, a JSON
// document — the old wire form — is 415 by name, never stored as a
// file's bytes, and a preamble that overruns its body is 400. The
// update's chunk is read whole, so on that route a declared length over
// the cap is 413 with the body unread, an undeclared one is cut at
// cap+1, and a body that stops short of its declaration is 400. An
// upload streams and has no cap; a short upload body over a real socket
// is TestTruncatedUploadStoresNothing's.
func TestWriteRoutesRefuseBadBodies(t *testing.T) {
	lowerBlobCap(t, 1<<10)
	d := memDistributor(t, 5)
	if _, err := d.Upload("a", "pw", "target", make([]byte, 100), privacy.Public, core.UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := NewDistributorServer(d)
	for _, route := range []struct {
		path   string
		ok     int
		capped bool
	}{
		{"/v1/upload?client=a&filename=new&pl=0", http.StatusOK, false},
		{"/v1/update_chunk?client=a&filename=target&serial=0", http.StatusNoContent, true},
	} {
		post := func(body io.Reader, declared int64, contentType string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, route.path, body)
			req.ContentLength = declared
			req.Header.Set("Content-Type", contentType)
			req.Header.Set(headerPassword, "cHc=") // "pw"
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			return rec
		}
		if route.capped {
			if rec := post(untouchable{t}, 1<<10+1, octetStream); rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s declared oversize: status %d, want 413", route.path, rec.Code)
			}
			endless := &countingReader{r: zeroes{}}
			if rec := post(endless, -1, octetStream); rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s undeclared oversize: status %d, want 413", route.path, rec.Code)
			}
			if endless.n != 1<<10+1 {
				t.Errorf("%s undeclared oversize: %d bytes buffered, want cap+1", route.path, endless.n)
			}
			if rec := post(bytes.NewReader(make([]byte, 10)), 100, octetStream); rec.Code != http.StatusBadRequest {
				t.Errorf("%s 10 bytes declared as 100: status %d, want 400", route.path, rec.Code)
			}
		}
		rec := post(untouchable{t}, 40, "application/json")
		if rec.Code != http.StatusUnsupportedMediaType || !strings.Contains(rec.Body.String(), octetStream) {
			t.Errorf("%s JSON body: status %d %q, want 415 naming %s", route.path, rec.Code, rec.Body.String(), octetStream)
		}
		// A preamble that overruns the body it is declared in is refused too.
		req := httptest.NewRequest(http.MethodPost, route.path+"&preamble=11", bytes.NewReader(make([]byte, 10)))
		req.Header.Set("Content-Type", octetStream)
		bad := httptest.NewRecorder()
		srv.ServeHTTP(bad, req)
		if bad.Code != http.StatusBadRequest {
			t.Errorf("%s preamble past the body: status %d, want 400", route.path, bad.Code)
		}
		if _, err := d.GetFile("a", "pw", "new"); err == nil {
			t.Fatalf("%s: a refused request stored a file", route.path)
		}
		// At the cap, declared or not, the write goes through whole.
		for _, declared := range []int64{1 << 10, -1} {
			if rec := post(bytes.NewReader(bytes.Repeat([]byte{7}, 1<<10)), declared, octetStream); rec.Code != route.ok {
				t.Fatalf("%s at-cap body (declared %d): status %d %s", route.path, declared, rec.Code, rec.Body)
			}
			_ = d.RemoveFile("a", "pw", "new")
		}
	}
}

// TestTruncatedUploadStoresNothing: a client declares 200 000 bytes,
// sends 100 000 and hangs up, over a real socket. net/http reports the
// short body as io.ErrUnexpectedEOF whether it was cut short of its
// Content-Length or of its terminating chunk, and the upload must fail
// and roll back — at the distributor and behind a ShardProxy, which
// relays the body as it arrives — instead of committing the prefix as
// the whole file.
func TestTruncatedUploadStoresNothing(t *testing.T) {
	const declared, sent = 200_000, 100_000
	for _, tc := range []struct {
		name             string
		chunked, proxied bool
	}{
		{"ContentLength", false, false},
		{"Chunked", true, false},
		{"ShardProxy", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := memDistributor(t, 5)
			inner := NewDistributorServer(d)
			served := make(chan struct{}, 1)
			shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				inner.ServeHTTP(w, r)
				served <- struct{}{}
			}))
			t.Cleanup(shard.Close)
			target := shard.Listener.Addr().String()
			if tc.proxied {
				sys, err := NewShardedClient([]string{shard.URL}, nil)
				if err != nil {
					t.Fatal(err)
				}
				proxy := httptest.NewServer(NewShardProxy(sys))
				t.Cleanup(proxy.Close)
				target = proxy.Listener.Addr().String()
			}

			conn, err := net.Dial("tcp", target)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			framing := fmt.Sprintf("Content-Length: %d\r\n\r\n", declared)
			if tc.chunked {
				// One whole chunk and no terminating one.
				framing = fmt.Sprintf("Transfer-Encoding: chunked\r\n\r\n%x\r\n", sent)
			}
			head := "POST /v1/upload?client=a&filename=cut&pl=0 HTTP/1.1\r\nHost: distributor\r\n" +
				"Content-Type: application/octet-stream\r\nX-Password: cHc=\r\n" + framing
			if _, err := conn.Write(append([]byte(head), patterned(sent)...)); err != nil {
				t.Fatal(err)
			}
			if tc.chunked {
				if _, err := conn.Write([]byte("\r\n")); err != nil {
					t.Fatal(err)
				}
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			// The distributor answers 400; the proxy, whose own request to
			// the shard broke off, 502.
			want := http.StatusBadRequest
			if tc.proxied {
				want = http.StatusBadGateway
			}
			status := 0
			if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err == nil {
				status = resp.StatusCode
			}
			if status != want {
				t.Errorf("upload of %d of %d bytes: status %d, want %d", sent, declared, status, want)
			}
			select {
			case <-served:
			case <-time.After(10 * time.Second):
				t.Fatal("the distributor never finished the request")
			}
			if v := core.StateOf(d); len(v.Blobs) != 0 || !v.Quiescent {
				t.Errorf("after the broken upload: %d blobs, quiescent %v; want none, true", len(v.Blobs), v.Quiescent)
			}
			if _, err := d.GetFile("a", "pw", "cut"); !errors.Is(err, core.ErrNoSuchFile) {
				t.Errorf("the truncated upload is readable: %v", err)
			}
		})
	}
}

// TestUploadIsNotCapped: an upload streams into the pipeline, so a body
// past the whole-body cap (maxBlobRead, lowered here) round-trips.
func TestUploadIsNotCapped(t *testing.T) {
	lowerBlobCap(t, 1<<10)
	srv := httptest.NewServer(NewDistributorServer(memDistributor(t, 5)))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, srv.Client())
	data := patterned(64 << 10)
	if _, err := c.Upload("a", "pw", "big", data, privacy.Public, UploadOptions{}); err != nil {
		t.Fatalf("upload of %d bytes past a %d-byte cap: %v", len(data), 1<<10, err)
	}
	if got, err := c.GetFile("a", "pw", "big"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("over-cap upload does not round-trip byte-exact: %v", err)
	}
}

// TestJSONRequestsAreCapped: the JSON routes carry names and numbers
// only, and say so — on the distributor and on the proxy, which decodes
// with the same helper.
func TestJSONRequestsAreCapped(t *testing.T) {
	d := memDistributor(t, 4)
	sys, _ := shardFixture(t, 2, 4)
	for name, srv := range map[string]http.Handler{"distributor": NewDistributorServer(d), "proxy": NewShardProxy(sys)} {
		post := func(body io.Reader, declared int64) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/v1/get_file", body)
			req.ContentLength = declared
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			return rec
		}
		if rec := post(untouchable{t}, maxJSONRequest+1); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s declared oversize JSON: status %d, want 413", name, rec.Code)
		}
		huge := strings.NewReader(`{"client":"` + strings.Repeat("x", maxJSONRequest))
		if rec := post(huge, -1); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s undeclared oversize JSON: status %d, want 413", name, rec.Code)
		}
		if rec := post(strings.NewReader(`{"client":`), -1); rec.Code != http.StatusBadRequest {
			t.Errorf("%s malformed JSON: status %d, want 400", name, rec.Code)
		}
	}
}

func TestPreambleCodec(t *testing.T) {
	lines := [][]byte{[]byte("a,b\n"), {}, bytes.Repeat([]byte("x"), 300)}
	pre := appendLines(nil, lines)
	got, err := parseLines(pre)
	if err != nil || len(got) != len(lines) {
		t.Fatalf("round trip: %d lines, %v", len(got), err)
	}
	for i := range lines {
		if !bytes.Equal(got[i], lines[i]) {
			t.Errorf("line %d: %q", i, got[i])
		}
	}
	for _, bad := range [][]byte{pre[:len(pre)-1], {0x05, 'a'}, bytes.Repeat([]byte{0xff}, 11)} {
		if _, err := parseLines(bad); err == nil {
			t.Errorf("malformed preamble %x accepted", bad)
		}
	}
}

// uploadOnce drives POST /v1/upload through the handler, as the server
// sees it: no client, no socket.
func uploadOnce(t testing.TB, srv http.Handler, name string, data []byte) {
	q := url.Values{"client": {"a"}, "filename": {name}, "pl": {"0"}, "noParity": {"1"}}
	req := httptest.NewRequest(http.MethodPost, "/v1/upload?"+q.Encode(), bytes.NewReader(data))
	req.Header.Set("Content-Type", octetStream)
	req.Header.Set(headerPassword, "cHc=")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: status %d %s", rec.Code, rec.Body)
	}
}

// TestUploadHandlerAllocationBudget pins what the upload route itself
// allocates on the server: the handler's bytes minus those of the same
// core.Upload called directly, per uploaded byte. The body streams into
// the pipeline's pooled chunk buffers, so the handler holds nothing the
// size of the file: a whole-body buffer cost one byte per byte, and
// base64-in-JSON about five (decoder refills, the unquoted copy, the
// base64 target).
func TestUploadHandlerAllocationBudget(t *testing.T) {
	d := memDistributor(t, 4)
	srv := NewDistributorServer(d)
	data := bytes.Repeat([]byte("0123456789abcdef"), 4<<20/16)
	const runs = 6
	allocated := func(upload func(name string)) float64 {
		upload("warm") // fill the buffer pools
		_ = d.RemoveFile("a", "pw", "warm")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			name := fmt.Sprint("f", i)
			upload(name)
			_ = d.RemoveFile("a", "pw", name)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*len(data))
	}
	viaCore := allocated(func(name string) {
		if _, err := d.Upload("a", "pw", name, data, privacy.Public, core.UploadOptions{NoParity: true}); err != nil {
			t.Fatal(err)
		}
	})
	viaHandler := allocated(func(name string) { uploadOnce(t, srv, name, data) })
	if over := viaHandler - viaCore; over > 0.25 {
		t.Errorf("upload handler allocates %.2f B per uploaded byte over core.Upload's %.2f, want <= 0.25", over, viaCore)
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so a handler's
// own allocations are all a measurement sees.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header       { return d.h }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}

// TestProxiedReadAllocationBudget pins that the proxy relays a read
// instead of holding it: an 8 MiB get_file served through ShardProxy may
// allocate, on top of what the shard's own handler allocates for the same
// request, a small multiple of the 32 KiB copy buffer. Decoding the
// request, re-issuing it through a Client and re-encoding the reply cost
// the object at least twice over.
func TestProxiedReadAllocationBudget(t *testing.T) {
	sys, dists := shardFixture(t, 1, 4)
	shard, proxy := NewDistributorServer(dists[0]), NewShardProxy(sys)
	if err := sys.RegisterClient("a"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPassword("a", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 8<<20/16)
	if _, err := sys.Upload("a", "pw", "big", data, privacy.Public, UploadOptions{NoParity: true}); err != nil {
		t.Fatal(err)
	}
	const runs = 4
	allocated := func(h http.Handler) uint64 {
		get := func() {
			req := httptest.NewRequest(http.MethodPost, routeGetFile.path, strings.NewReader(`{"client":"a","password":"pw","filename":"big"}`))
			h.ServeHTTP(discardResponse{http.Header{}}, req)
		}
		get() // warm pools and connections
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	atShard, viaProxy := allocated(shard), allocated(proxy)
	if over := int64(viaProxy) - int64(atShard); over > 8*32<<10 {
		t.Errorf("proxying an 8 MiB read allocates %d KiB over the shard's own %d KiB, want <= 256 KiB", over>>10, atShard>>10)
	}
}

// BenchmarkClientUpload is the client→distributor hop end to end: a
// Client over loopback HTTP into a DistributorServer on in-memory
// providers, PL0, so the wire form is what dominates.
func BenchmarkClientUpload(b *testing.B) {
	for _, size := range []int{64 << 10, 4 << 20, 8 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			srv := httptest.NewServer(NewDistributorServer(memDistributor(b, 6)))
			defer srv.Close()
			c := NewClient(srv.URL, srv.Client())
			data := bytes.Repeat([]byte("0123456789abcdef"), size/16)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Upload("a", "pw", "f", data, privacy.Public, UploadOptions{}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := c.RemoveFile("a", "pw", "f"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkUploadLoopbackFleet is the distributor→provider hop end to
// end: a put into a distributor whose six providers are RemoteProviders
// on loopback HTTP, as deployed. Every other upload benchmark runs over
// in-process providers, where asking a provider anything is free — which
// is how a health round trip per provider per stripe, under the table
// lock, went unmeasured. The small case is all placement and round
// trips; the defended one is the paper's highly-sensitive path. Each case
// has an -inproc twin, the same upload over six in-process providers
// with no HTTP, so the pair shows what the hop itself adds to a put.
func BenchmarkUploadLoopbackFleet(b *testing.B) {
	hops := []struct {
		suffix string
		dist   func(testing.TB) *core.Distributor
	}{
		{"", func(tb testing.TB) *core.Distributor {
			return newLoopbackFleet(tb, 6, 10*time.Second, core.Config{}).dist
		}},
		{"-inproc", func(tb testing.TB) *core.Distributor { return memDistributor(tb, 6) }},
	}
	for _, bc := range []struct {
		name string
		size int
		pl   privacy.Level
		opts core.UploadOptions
	}{
		{"4KiB-PL2", 4 << 10, privacy.Moderate, core.UploadOptions{}},
		{"4MiB-PL3-RAID6-mislead", 4 << 20, privacy.High, core.UploadOptions{Assurance: raid.RAID6, MisleadFraction: 0.25}},
	} {
		for _, hop := range hops {
			b.Run(bc.name+hop.suffix, func(b *testing.B) {
				d := hop.dist(b)
				data := patterned(bc.size)
				b.SetBytes(int64(bc.size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.Upload("a", "pw", "f", data, bc.pl, bc.opts); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := d.RemoveFile("a", "pw", "f"); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}
