package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
)

// untouchable fails the test if anything reads from it: a body refused
// on its declared length must be refused before it is buffered.
type untouchable struct{ t *testing.T }

func (u untouchable) Read([]byte) (int, error) {
	u.t.Error("body was read although its declared length is over the limit")
	return 0, io.EOF
}

// countingReader counts the bytes drawn from it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 1000)

	// Declared and honest: exactly one buffer of exactly that size.
	got, err := readBody(bytes.NewReader(payload), 1000, 4096)
	if err != nil || !bytes.Equal(got, payload) || cap(got) != 1000 {
		t.Fatalf("declared body: %d bytes (cap %d), %v", len(got), cap(got), err)
	}
	// One byte at a time must not be mistaken for a short body.
	got, err = readBody(iotest.OneByteReader(bytes.NewReader(payload)), 1000, 4096)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("trickled body: %d bytes, %v", len(got), err)
	}
	// Declared empty.
	if got, err = readBody(untouchable{t}, 0, 4096); err != nil || len(got) != 0 {
		t.Fatalf("empty body: %d bytes, %v", len(got), err)
	}
	// Declared over the limit: refused unread.
	if _, err = readBody(untouchable{t}, 4097, 4096); !errors.Is(err, errOversizeBody) {
		t.Fatalf("declared oversize: %v", err)
	}
	// Declared at the limit: fits.
	if got, err = readBody(bytes.NewReader(make([]byte, 4096)), 4096, 4096); err != nil || len(got) != 4096 {
		t.Fatalf("declared at the limit: %d bytes, %v", len(got), err)
	}
	// Shorter than declared, including not there at all.
	for _, sent := range []int{0, 10, 999} {
		if got, err = readBody(bytes.NewReader(payload[:sent]), 1000, 4096); !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
			t.Fatalf("%d of 1000 declared bytes: %d bytes, %v", sent, len(got), err)
		}
	}
	// Undeclared: whatever fits.
	if got, err = readBody(bytes.NewReader(payload), -1, 1000); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("undeclared body at the limit: %d bytes, %v", len(got), err)
	}
	// Undeclared and endless: cut off after limit+1 bytes, not slurped.
	endless := &countingReader{r: zeroes{}}
	if _, err = readBody(endless, -1, 1000); !errors.Is(err, errOversizeBody) {
		t.Fatalf("undeclared oversize: %v", err)
	}
	if endless.n != 1001 {
		t.Fatalf("undeclared oversize body: %d bytes drawn, want limit+1 = 1001", endless.n)
	}
}

type zeroes struct{}

func (zeroes) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// lowerBlobCap shrinks the provider-hop body cap for one test.
func lowerBlobCap(t *testing.T, n int64) {
	t.Helper()
	old := maxBlobRead
	maxBlobRead = n
	t.Cleanup(func() { maxBlobRead = old })
}

// lyingBody serves a response that declares claim bytes, sends only
// send of them and then drops the connection. claim may be far more
// than anyone could send: only the header matters to a reader that
// refuses on the declaration.
func lyingBody(claim int64, send int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(claim))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(bytes.Repeat([]byte("x"), send))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
}

// chunkedBody serves n bytes with no declared length (a flush before
// the handler returns forces chunked transfer encoding).
func chunkedBody(n int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(bytes.Repeat([]byte("x"), n/2))
		w.(http.Flusher).Flush()
		_, _ = w.Write(bytes.Repeat([]byte("x"), n-n/2))
	}
}

// putChunk decides from the request's declared length: over the cap is
// 413 without touching the body, a body that stops short is a 400 and
// stores nothing, and a body of undeclared length is still cut at the
// cap. Driven through the handler so the request can lie about itself,
// which net/http's client refuses to do.
func TestPutChunkOversizeAndLyingLengths(t *testing.T) {
	lowerBlobCap(t, 1<<10)
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewProviderServer(mem)
	put := func(body io.Reader, declared int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPut, "/v1/chunks/k", body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	if rec := put(untouchable{t}, 1<<10+1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared oversize put: status %d, want 413", rec.Code)
	}
	if rec := put(bytes.NewReader(make([]byte, 10)), 100); rec.Code != http.StatusBadRequest {
		t.Errorf("put of 10 bytes declared as 100: status %d, want 400", rec.Code)
	}
	endless := &countingReader{r: zeroes{}}
	if rec := put(endless, -1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("undeclared oversize put: status %d, want 413", rec.Code)
	}
	if endless.n != 1<<10+1 {
		t.Errorf("undeclared oversize put: %d bytes buffered, want cap+1", endless.n)
	}
	if n := mem.Len(); n != 0 {
		t.Fatalf("%d blobs stored by refused puts", n)
	}
	// At the cap, declared or not, the put goes through whole.
	for _, declared := range []int64{1 << 10, -1} {
		if rec := put(bytes.NewReader(bytes.Repeat([]byte{7}, 1<<10)), declared); rec.Code != http.StatusNoContent {
			t.Fatalf("at-cap put (declared %d): status %d", declared, rec.Code)
		}
		if got, err := mem.Get("k"); err != nil || len(got) != 1<<10 {
			t.Fatalf("at-cap put (declared %d) stored %d bytes, %v", declared, len(got), err)
		}
	}
}

// putChunk reads into a pooled buffer and hands it back once Put returns,
// so the next put may be read into the very same bytes. A provider that
// kept the slice instead of copying it would see its first blob turn
// into the second; this catches it.
func TestPutChunkReusesNoStoredBytes(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewProviderServer(mem)
	first, second := bytes.Repeat([]byte{1}, 10<<10), bytes.Repeat([]byte{2}, 10<<10)
	for _, put := range []struct {
		key  string
		blob []byte
	}{{"a", first}, {"b", second}} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/chunks/"+put.key, bytes.NewReader(put.blob)))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("put %s: status %d", put.key, rec.Code)
		}
	}
	if got, err := mem.Get("a"); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("first blob after a second put: %v, intact %v", err, bytes.Equal(got, first))
	}
	if got, err := mem.Get("b"); err != nil || !bytes.Equal(got, second) {
		t.Fatalf("second blob: %v", err)
	}
}

// A put through the handler allocates the provider's copy of the blob
// and little else: the body itself is read into a pooled buffer. Reading
// it into a buffer of its own would cost the blob twice.
func TestPutChunkAllocationBudget(t *testing.T) {
	const blobLen, runs = 10 << 10, 50
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewProviderServer(mem)
	blob := bytes.Repeat([]byte{5}, blobLen)
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPut, fmt.Sprintf("/v1/chunks/k%d", i), bytes.NewReader(blob))
	}
	srv.ServeHTTP(discardResponse{http.Header{}}, reqs[runs]) // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs[:runs] {
		srv.ServeHTTP(discardResponse{http.Header{}}, req)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 2*blobLen {
		t.Errorf("a %d-byte put allocates %d bytes through the handler, want < %d", blobLen, per, 2*blobLen)
	}
	if n := mem.Len(); n != runs+1 {
		t.Fatalf("%d blobs stored, want %d", n, runs+1)
	}
}

// TestProviderGetDeclaresLength asks the provider server with net/http's
// own client, so what it sees is what the server sent.
func TestProviderGetDeclaresLength(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewProviderServer(mem))
	t.Cleanup(srv.Close)
	blob := bytes.Repeat([]byte{3}, 10<<10) // past net/http's 2 KiB auto-length buffer
	if err := mem.Put("k", blob); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + chunkPath + "k")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != int64(len(blob)) {
		t.Fatalf("chunk response declares length %d, want %d", resp.ContentLength, len(blob))
	}
}

func TestRemoteProviderGetOversizeAndLyingLengths(t *testing.T) {
	lowerBlobCap(t, 1<<10)
	for name, tc := range map[string]struct {
		serve   http.HandlerFunc
		wantErr string
	}{
		// A petabyte is declared and nothing sent: only a reader that
		// decides on the header calls this oversize rather than cut off.
		"declared oversize": {lyingBody(1<<50, 0), "exceeds"},
		"short body":        {lyingBody(100, 10), "unexpected EOF"},
		// A body of undeclared length is refused whatever its size.
		"chunked oversize": {chunkedBody(1<<10 + 1), "Transfer-Encoding"},
		"chunked at cap":   {chunkedBody(1 << 10), "Transfer-Encoding"},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/info", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, infoDTO{Name: "L", PL: 3, CL: 1})
		})
		mux.HandleFunc("/v1/chunks/", tc.serve)
		srv := httptest.NewServer(mux)
		remote, err := DialProvider(srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		remote.retry.sleep = func(time.Duration) {}
		data, err := remote.Get("k")
		if err == nil || data != nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Get = %d bytes, %v; want an error mentioning %q", name, len(data), err, tc.wantErr)
		}
		srv.Close()
	}
}

func TestOnceOversizeAndLyingLengths(t *testing.T) {
	lowerRespCap(t, 4096)
	for name, tc := range map[string]struct {
		serve    http.HandlerFunc
		oversize bool // ErrOversizeResponse; otherwise a retriable netError
	}{
		"declared oversize": {lyingBody(1<<50, 0), true},
		"short body":        {lyingBody(100, 10), false},
		"chunked oversize":  {chunkedBody(4097), true},
	} {
		srv := httptest.NewServer(tc.serve)
		payload, err := quietClient(t, srv).once(context.Background(), routeGetFile.route, []byte("{}"))
		if err == nil || payload != nil {
			t.Errorf("%s: once = %d bytes, %v; want an error and no payload", name, len(payload), err)
		}
		if got := errors.Is(err, ErrOversizeResponse); got != tc.oversize {
			t.Errorf("%s: ErrOversizeResponse = %v, want %v (err: %v)", name, got, tc.oversize, err)
		}
		if got := isNetworkError(err); got == tc.oversize {
			t.Errorf("%s: classified as network error = %v (err: %v)", name, got, err)
		}
		srv.Close()
	}
	srv := httptest.NewServer(chunkedBody(4096))
	t.Cleanup(srv.Close)
	if payload, err := quietClient(t, srv).once(context.Background(), routeGetFile.route, []byte("{}")); err != nil || len(payload) != 4096 {
		t.Fatalf("chunked at-cap once = %d bytes, %v", len(payload), err)
	}
}
