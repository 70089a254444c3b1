package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
)

// multiGetFrames builds a reply body out of (status, bytes) pairs.
func multiGetFrames(items ...any) []byte {
	var reply []byte
	for i := 0; i < len(items); i += 2 {
		data := []byte(items[i+1].(string))
		reply = binary.AppendUvarint(reply, uint64(items[i].(int)))
		reply = binary.AppendUvarint(reply, uint64(len(data)))
		reply = append(reply, data...)
	}
	return reply
}

// TestRemoteProviderGetMany: one round trip, every key answered as a
// single Get would have answered it — blob for blob and error for error,
// text included — and a server-side hook sees one get per key.
func TestRemoteProviderGetMany(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // the server's goroutines write, the test reads
	var seen []string
	requests := 0
	mem.SetBeforeGet(func(key string) error {
		mu.Lock()
		seen = append(seen, key)
		mu.Unlock()
		switch key {
		case "dark":
			return fmt.Errorf("%w: N", provider.ErrOutage)
		case "flaky":
			return fmt.Errorf("%w: N", provider.ErrInjected)
		case "broken":
			return errors.New("disk on fire")
		}
		return nil
	})
	server := NewProviderServer(mem)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		server.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	remote, err := DialProvider(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{9}, 10<<10)
	for key, blob := range map[string][]byte{"a": []byte("alpha"), "empty": {}, "big": big} {
		if err := mem.Put(key, blob); err != nil {
			t.Fatal(err)
		}
	}

	keys := []string{"a", "missing", "big", "dark", "empty", "flaky", "broken", "odd/key with space"}
	blobs, errs := remote.GetMany(keys)
	mu.Lock()
	if requests != 2 { // the dial's info request, and this
		t.Fatalf("GetMany of %d keys made %d requests, want 1", len(keys), requests-1)
	}
	if strings.Join(seen, ",") != strings.Join(keys, ",") {
		t.Fatalf("the provider saw gets %q, want one per key in order %q", seen, keys)
	}
	mu.Unlock()
	if len(blobs) != len(keys) || len(errs) != len(keys) {
		t.Fatalf("%d blobs and %d errors for %d keys", len(blobs), len(errs), len(keys))
	}
	for i, key := range keys {
		single, singleErr := remote.Get(key)
		if !bytes.Equal(blobs[i], single) || (errs[i] == nil) != (singleErr == nil) {
			t.Errorf("%q: GetMany = %d bytes, %v; Get = %d bytes, %v", key, len(blobs[i]), errs[i], len(single), singleErr)
			continue
		}
		if singleErr == nil {
			continue
		}
		if errs[i].Error() != singleErr.Error() {
			t.Errorf("%q: GetMany says %q, Get says %q", key, errs[i], singleErr)
		}
		for _, sentinel := range []error{provider.ErrNotFound, provider.ErrOutage, provider.ErrInjected} {
			if errors.Is(errs[i], sentinel) != errors.Is(singleErr, sentinel) {
				t.Errorf("%q: GetMany error %v and Get error %v disagree on %v", key, errs[i], singleErr, sentinel)
			}
		}
	}
	if !errors.Is(errs[1], provider.ErrNotFound) || !errors.Is(errs[3], provider.ErrOutage) || !errors.Is(errs[5], provider.ErrInjected) {
		t.Fatalf("per-item sentinels: %v / %v / %v", errs[1], errs[3], errs[5])
	}
	// The blobs are views of one buffer, clipped so that appending to one
	// cannot run into the next.
	if cap(blobs[0]) != len(blobs[0]) || cap(blobs[2]) != len(blobs[2]) {
		t.Fatalf("blob capacities %d/%d exceed their lengths %d/%d", cap(blobs[0]), cap(blobs[2]), len(blobs[0]), len(blobs[2]))
	}
	if none, noErrs := remote.GetMany(nil); len(none) != 0 || len(noErrs) != 0 {
		t.Fatalf("GetMany of no keys = %d blobs, %d errors", len(none), len(noErrs))
	}
}

// TestProviderGetManyHelper: the helper takes the one-call path only when
// the provider offers it and there is more than one key to ask for; a
// wrapper that embeds the interface hides it and gets the loop. The
// benchmark's timing shim has exactly that shape, and its traced smoke
// test (TestSmokeTraced) counts the per-key calls the loop makes, which
// is why GetMany stays optional.
func TestProviderGetManyHelper(t *testing.T) {
	mem, remote, requests := countedProviderPair(t)
	for _, key := range []string{"a", "b"} {
		if err := mem.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(p provider.Store, keys []string, want map[string]int) {
		t.Helper()
		requests.reset()
		blobs, errs := provider.GetMany(p, keys)
		for i, key := range keys {
			if errs[i] != nil || string(blobs[i]) != key {
				t.Fatalf("GetMany(%q)[%d] = %q, %v", keys, i, blobs[i], errs[i])
			}
		}
		if got := requests.String(); got != fmt.Sprint(want) {
			t.Fatalf("GetMany(%q) made requests %v, want %v", keys, got, want)
		}
	}
	check(remote, []string{"a", "b"}, map[string]int{"POST " + multiGetPath: 1})
	check(remote, []string{"a"}, map[string]int{"GET /v1/chunks/a": 1})
	check(struct{ provider.Provider }{remote}, []string{"a", "b"}, map[string]int{"GET /v1/chunks/a": 1, "GET /v1/chunks/b": 1})
}

// TestRemoteProviderGetManyFailureShapes mirrors the single Get's body
// rules for the multi-get reply: a declared length over the cap is
// refused unread, a reply that ends early — on the wire or inside a frame
// — is io.ErrUnexpectedEOF and never a short blob, and a reply whose item
// count is not the key count fails whole. Whatever fails the call is
// every key's error.
func TestRemoteProviderGetManyFailureShapes(t *testing.T) {
	testBatchFailureShapes(t, multiGetPath, func(remote *RemoteProvider, keys []string) []error {
		blobs, errs := remote.GetMany(keys)
		for i := range blobs {
			if blobs[i] != nil {
				t.Errorf("key %d: %d bytes out of a failed call", i, len(blobs[i]))
			}
		}
		return errs
	})
}

// TestRemoteProviderDeleteManyFailureShapes: the multi-delete reply is
// parsed by the same frame codec and fails the same way.
func TestRemoteProviderDeleteManyFailureShapes(t *testing.T) {
	testBatchFailureShapes(t, multiDeletePath, (*RemoteProvider).DeleteMany)
}

// testBatchFailureShapes answers the batch route path with each broken
// reply and checks that call fails every key with the expected error.
func testBatchFailureShapes(t *testing.T, path string, call func(remote *RemoteProvider, keys []string) []error) {
	lowerBlobCap(t, 1<<10)
	octets := func(body []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			_, _ = w.Write(body)
		}
	}
	cutFrame := multiGetFrames(200, "whole", 200, "cut short")
	for name, tc := range map[string]struct {
		serve   http.HandlerFunc
		wantErr string
		is      error
	}{
		"declared oversize": {lyingBody(1<<50, 0), "exceeds", ErrOversizeResponse},
		"chunked oversize":  {chunkedBody(1<<10 + 1), "exceeds", ErrOversizeResponse},
		"short body":        {lyingBody(100, 10), "unexpected EOF", io.ErrUnexpectedEOF},
		"ends mid-frame":    {octets(cutFrame[:len(cutFrame)-3]), "item 1", io.ErrUnexpectedEOF},
		"ends mid-header":   {octets(append(multiGetFrames(200, "whole"), 0xC8)), "item 1", io.ErrUnexpectedEOF},
		"too few items":     {octets(multiGetFrames(200, "only one")), "1 items, 2 keys", nil},
		"too many items":    {octets(multiGetFrames(200, "a", 200, "b", 200, "c")), "more than the 2 items", nil},
		"length overflow":   {octets(append([]byte{0xC8, 0x01}, bytes.Repeat([]byte{0xFF}, 11)...)), "malformed length", nil},
		"refused":           {func(w http.ResponseWriter, _ *http.Request) { http.Error(w, "no", http.StatusRequestEntityTooLarge) }, "provider status 413", nil},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/info", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, infoDTO{Name: "L", PL: 3, CL: 1})
		})
		mux.HandleFunc("POST "+path, tc.serve)
		srv := httptest.NewServer(mux)
		remote, err := DialProvider(srv.URL, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		for i, err := range call(remote, []string{"k1", "k2"}) {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: key %d = %v; want an error mentioning %q", name, i, err, tc.wantErr)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("%s: key %d error %v is not %v", name, i, err, tc.is)
			}
		}
		srv.Close()
	}
}

// TestGetChunksRouteRefusals drives the server side of the route through
// its handler, so the request can lie about itself: a key list declared
// over the request cap is 413 unread, one that is not a JSON array of
// strings is 400, and a reply that would pass the blob cap is 413 instead
// of built.
func TestGetChunksRouteRefusals(t *testing.T) {
	lowerBlobCap(t, 4<<10)
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("k", make([]byte, 3<<10)); err != nil {
		t.Fatal(err)
	}
	srv := NewProviderServer(mem)
	post := func(body io.Reader, declared int64) int {
		req := httptest.NewRequest(http.MethodPost, multiGetPath, body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(untouchable{t}, maxJSONRequest+1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared oversize key list: status %d, want 413", code)
	}
	if code := post(strings.NewReader(`{"keys":1}`), -1); code != http.StatusBadRequest {
		t.Errorf("a key list that is not an array: status %d, want 400", code)
	}
	if code := post(strings.NewReader(`["k"]`), -1); code != http.StatusOK {
		t.Errorf("one 3 KiB blob under a 4 KiB cap: status %d, want 200", code)
	}
	before := mem.Usage().Gets
	if code := post(strings.NewReader(`["k","k","k","k"]`), -1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("a 12 KiB reply under a 4 KiB cap: status %d, want 413", code)
	}
	if n := mem.Usage().Gets - before; n != 2 {
		t.Errorf("the refused reply fetched %d blobs, want to stop at the second", n)
	}
}

// multiGetRequest is a POST of keys to the multi-get route.
func multiGetRequest(keys []string) *http.Request {
	body, _ := json.Marshal(keys) // a []string always marshals
	return httptest.NewRequest(http.MethodPost, multiGetPath, bytes.NewReader(body))
}

// A multi-get through the handler allocates the provider's copies of its
// blobs and little else: the reply is built in a pooled buffer. Building
// it in a buffer of its own costs the blobs twice. The figure is the
// least of several calls: a collection empties the pool, and under the
// race detector sync.Pool drops a quarter of its Puts on purpose.
func TestGetChunksAllocationBudget(t *testing.T) {
	const blobLen, keys, runs = 10 << 10, 32, 20
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%d", i)
		if err := mem.Put(names[i], bytes.Repeat([]byte{byte(i)}, blobLen)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewProviderServer(mem)
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		reqs[i] = multiGetRequest(names)
	}
	srv.ServeHTTP(discardResponse{http.Header{}}, reqs[runs]) // warm the pool
	least := uint64(math.MaxUint64)
	for _, req := range reqs[:runs] {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(discardResponse{http.Header{}}, req)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	const blobs = keys * blobLen
	if least >= blobs*3/2 {
		t.Errorf("a multi-get of %d blob bytes allocates %d bytes through the handler (%.2f×), want < 1.5×",
			blobs, least, float64(least)/blobs)
	}
}

// Two multi-gets served at once each build their reply in a pooled
// buffer; each must answer with its own keys' bytes, never the other's.
func TestGetChunksConcurrentReplies(t *testing.T) {
	const blobLen, keys, runs = 4 << 10, 8, 50
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewProviderServer(mem)
	sets := make([][]string, 2)
	for s := range sets {
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("set%d-k%d", s, i)
			if err := mem.Put(key, bytes.Repeat([]byte{byte(s*keys + i)}, blobLen)); err != nil {
				t.Fatal(err)
			}
			sets[s] = append(sets[s], key)
		}
	}
	var wg sync.WaitGroup
	for s, set := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := 0; run < runs; run++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, multiGetRequest(set))
				if rec.Code != http.StatusOK {
					t.Errorf("set %d: status %d", s, rec.Code)
					return
				}
				blobs, errs := make([][]byte, keys), make([]error, keys)
				if err := parseFrames(rec.Body.Bytes(), blobs, errs); err != nil {
					t.Errorf("set %d: %v", s, err)
					return
				}
				for i, blob := range blobs {
					if errs[i] != nil || !bytes.Equal(blob, bytes.Repeat([]byte{byte(s*keys + i)}, blobLen)) {
						t.Errorf("set %d, key %d: wrong bytes in the reply (err %v)", s, i, errs[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRemoteProviderGetManyRetriesNetworkErrors: a multi-get is a read,
// so a call that dies below HTTP is resent like a single Get; a served
// error is not.
func TestRemoteProviderGetManyRetriesNetworkErrors(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "flk", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, flaky := hangUpProvider(t, mem)
	var slept []time.Duration
	remote.retry.sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := mem.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}

	flaky.failNext(multiGetPath, netRetries-1)
	blobs, errs := remote.GetMany([]string{"a", "gone"})
	if errs[0] != nil || string(blobs[0]) != "alpha" || !errors.Is(errs[1], provider.ErrNotFound) {
		t.Fatalf("GetMany across %d dropped connections = %q/%v, %v", netRetries-1, blobs[0], errs[0], errs[1])
	}
	if n := flaky.attempts(multiGetPath); n != netRetries || len(slept) != netRetries-1 {
		t.Fatalf("%d attempts and %d backoff sleeps, want %d and %d", n, len(slept), netRetries, netRetries-1)
	}
	flaky.failNext(multiGetPath, netRetries)
	if _, errs = remote.GetMany([]string{"a", "gone"}); !errors.Is(errs[0], provider.ErrOutage) || !errors.Is(errs[1], provider.ErrOutage) {
		t.Fatalf("GetMany with the retry budget exhausted = %v, %v; want ErrOutage for every key", errs[0], errs[1])
	}
}

// TestRemoteProviderDeleteMany: one round trip, every key answered as a
// single Delete would have answered it — sentinel and text alike — a
// server-side hook sees one delete per key in order, and a 503 frame
// marks the provider down as a 503 reply would.
func TestRemoteProviderDeleteMany(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // the server's goroutines write, the test reads
	var seen []string
	requests := 0
	mem.SetBeforeDelete(func(key string) error {
		mu.Lock()
		seen = append(seen, key)
		mu.Unlock()
		switch key {
		case "dark":
			return fmt.Errorf("%w: N", provider.ErrOutage)
		case "flaky":
			return fmt.Errorf("%w: N", provider.ErrInjected)
		case "broken":
			return errors.New("disk on fire")
		}
		return nil
	})
	server := NewProviderServer(mem)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		server.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	remote, err := DialProvider(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "odd/key with space"} {
		if err := mem.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}

	keys := []string{"a", "missing", "dark", "flaky", "broken", "odd/key with space"}
	errs := remote.DeleteMany(keys)
	mu.Lock()
	if requests != 2 { // the dial's info request, and this
		t.Fatalf("DeleteMany of %d keys made %d requests, want 1", len(keys), requests-1)
	}
	if strings.Join(seen, ",") != strings.Join(keys, ",") {
		t.Fatalf("the provider saw deletes %q, want one per key in order %q", seen, keys)
	}
	mu.Unlock()
	if !remote.down.Load() {
		t.Fatal("a 503 frame left the provider up")
	}
	if len(errs) != len(keys) {
		t.Fatalf("%d errors for %d keys", len(errs), len(keys))
	}
	if errs[0] != nil || errs[5] != nil || mem.Len() != 0 {
		t.Fatalf("deleting stored keys: %v / %v, %d keys left", errs[0], errs[5], mem.Len())
	}
	for i, key := range keys[1:5] {
		single := remote.Delete(key)
		if errs[i+1] == nil || single == nil || errs[i+1].Error() != single.Error() {
			t.Errorf("%q: DeleteMany says %v, Delete says %v", key, errs[i+1], single)
			continue
		}
		for _, sentinel := range []error{provider.ErrNotFound, provider.ErrOutage, provider.ErrInjected} {
			if errors.Is(errs[i+1], sentinel) != errors.Is(single, sentinel) {
				t.Errorf("%q: DeleteMany error %v and Delete error %v disagree on %v", key, errs[i+1], single, sentinel)
			}
		}
	}
	if !errors.Is(errs[1], provider.ErrNotFound) || !errors.Is(errs[2], provider.ErrOutage) || !errors.Is(errs[3], provider.ErrInjected) {
		t.Fatalf("per-item sentinels: %v / %v / %v", errs[1], errs[2], errs[3])
	}
	if errs := remote.DeleteMany([]string{"a", "missing"}); remote.down.Load() || !errors.Is(errs[0], provider.ErrNotFound) {
		t.Fatalf("a reply without a 503 frame: down=%v, %v", remote.down.Load(), errs)
	}
}

// TestProviderDeleteManyHelper: like provider.GetMany, the helper takes
// the one-call path only when the provider offers it and there is more
// than one key; a single delete stays the plain DELETE, and a wrapper
// that hides the method gets the loop.
func TestProviderDeleteManyHelper(t *testing.T) {
	mem, remote, requests := countedProviderPair(t)
	check := func(p provider.Store, keys []string, want map[string]int) {
		t.Helper()
		for _, key := range keys {
			if err := mem.Put(key, []byte(key)); err != nil {
				t.Fatal(err)
			}
		}
		requests.reset()
		for i, err := range provider.DeleteMany(p, keys) {
			if err != nil {
				t.Fatalf("DeleteMany(%q)[%d] = %v", keys, i, err)
			}
		}
		if got := requests.String(); mem.Len() != 0 || got != fmt.Sprint(want) {
			t.Fatalf("DeleteMany(%q) left %d keys and made requests %v, want none and %v", keys, mem.Len(), got, want)
		}
	}
	check(remote, []string{"a", "b"}, map[string]int{"POST " + multiDeletePath: 1})
	check(remote, []string{"a"}, map[string]int{"DELETE /v1/chunks/a": 1})
	// A wrapper shaped like the benchmark's timing shim gets the per-key
	// loop, as in TestProviderGetManyHelper.
	check(struct{ provider.Provider }{remote}, []string{"a", "b"}, map[string]int{"DELETE /v1/chunks/a": 1, "DELETE /v1/chunks/b": 1})
}

// TestDeleteChunksRouteRefusals: a key list declared over the request cap
// is 413 unread, and one that is not a JSON array of strings is 400 with
// nothing deleted.
func TestDeleteChunksRouteRefusals(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "N", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv := NewProviderServer(mem)
	post := func(body io.Reader, declared int64) int {
		req := httptest.NewRequest(http.MethodPost, multiDeletePath, body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(untouchable{t}, maxJSONRequest+1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared oversize key list: status %d, want 413", code)
	}
	for _, body := range []string{`{"keys":["k"]}`, `["k",1]`, `["k"`} {
		if code := post(strings.NewReader(body), -1); code != http.StatusBadRequest {
			t.Errorf("key list %s: status %d, want 400", body, code)
		}
	}
	if mem.Len() != 1 {
		t.Fatal("a refused multi-delete deleted a key")
	}
	if code := post(strings.NewReader(`["k"]`), -1); code != http.StatusOK || mem.Len() != 0 {
		t.Errorf("a well-formed multi-delete: status %d, %d keys left", code, mem.Len())
	}
}

// TestRemoteProviderDeleteManyRetriesNetworkErrors: a delete is
// idempotent, so a multi-delete that dies below HTTP is resent like a
// single Delete; once the retry budget is spent every key is an outage.
func TestRemoteProviderDeleteManyRetriesNetworkErrors(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "flk", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, flaky := hangUpProvider(t, mem)
	var slept []time.Duration
	remote.retry.sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := mem.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}

	flaky.failNext(multiDeletePath, netRetries-1)
	if errs := remote.DeleteMany([]string{"a", "gone"}); errs[0] != nil || !errors.Is(errs[1], provider.ErrNotFound) || mem.Len() != 0 {
		t.Fatalf("DeleteMany across %d dropped connections = %v, %d keys left", netRetries-1, errs, mem.Len())
	}
	if n := flaky.attempts(multiDeletePath); n != netRetries || len(slept) != netRetries-1 {
		t.Fatalf("%d attempts and %d backoff sleeps, want %d and %d", n, len(slept), netRetries, netRetries-1)
	}
	flaky.failNext(multiDeletePath, netRetries)
	if errs := remote.DeleteMany([]string{"a", "gone"}); !errors.Is(errs[0], provider.ErrOutage) || !errors.Is(errs[1], provider.ErrOutage) {
		t.Fatalf("DeleteMany with the retry budget exhausted = %v; want ErrOutage for every key", errs)
	}
}

// FuzzMultiGetReply: hostile reply bytes never panic the parser both
// batch routes share, and whatever it accepts is consistent — every blob
// a view inside the reply, no longer than the reply, one slot per key,
// error or blob but not both. A multi-delete's reply is the same frames
// with empty 200 bodies.
func FuzzMultiGetReply(f *testing.F) {
	f.Add(multiGetFrames(200, "alpha", 404, "provider: key not found: N/k", 200, ""), 3)
	f.Add(multiGetFrames(200, "alpha"), 2)
	f.Add([]byte{0xC8, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 1)
	f.Add([]byte{0xC8, 0x01, 0x05, 'a', 'b'}, 1)
	f.Add([]byte{}, 0)
	f.Add(multiGetFrames(200, "", 200, "", 503, "provider: outage: N"), 3)
	f.Add(multiGetFrames(200, "", 200, ""), 3)
	f.Add(append(multiGetFrames(200, ""), 0xC8, 0x01), 2)
	f.Fuzz(func(t *testing.T, reply []byte, keys int) {
		if keys < 0 || keys > 64 {
			return
		}
		blobs, errs := make([][]byte, keys), make([]error, keys)
		if err := parseFrames(reply, blobs, errs); err != nil {
			return
		}
		total := 0
		for i := range blobs {
			if (blobs[i] != nil) == (errs[i] != nil) {
				t.Fatalf("item %d: blob %v and error %v, want exactly one", i, blobs[i] != nil, errs[i])
			}
			if cap(blobs[i]) != len(blobs[i]) {
				t.Fatalf("item %d: capacity %d past its length %d", i, cap(blobs[i]), len(blobs[i]))
			}
			total += len(blobs[i])
		}
		if total > len(reply) {
			t.Fatalf("%d blob bytes out of a %d-byte reply", total, len(reply))
		}
	})
}

// clientGetFileRig is the distributor→client hop of a whole-object read
// and nothing else: an 8 MiB reply answered through the route table, and
// the Client that reads it.
func clientGetFileRig(tb testing.TB) (c *Client, size int) {
	object := bytes.Repeat([]byte("0123456789abcdef"), 8<<20/16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		routeGetFile.answer(w, object, nil)
	}))
	tb.Cleanup(srv.Close)
	return NewClient(srv.URL, srv.Client()), len(object)
}

// BenchmarkClientGetFile: declared, the reply body is allocated once; B/op
// over 1.1 × the object means the reader is growing and recopying again.
func BenchmarkClientGetFile(b *testing.B) {
	c, size := clientGetFileRig(b)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := c.GetFile("a", "pw", "f"); err != nil || len(got) != size {
			b.Fatalf("GetFile = %d bytes, %v", len(got), err)
		}
	}
}

// TestClientGetFileAllocationBudget is the benchmark's bound as a test.
func TestClientGetFileAllocationBudget(t *testing.T) {
	c, size := clientGetFileRig(t)
	get := func() {
		if got, err := c.GetFile("a", "pw", "f"); err != nil || len(got) != size {
			t.Fatalf("GetFile = %d bytes, %v", len(got), err)
		}
	}
	get() // warm the connection
	// The least of a few reads: whatever else the process allocates
	// meanwhile can only add.
	least := ^uint64(0)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		get()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(size) * 11 / 10; least > limit {
		t.Fatalf("reading an %d-byte reply allocates %d bytes, want <= %d (1.1 x the object)", size, least, limit)
	}
}
