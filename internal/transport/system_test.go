package transport

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// shardFixture serves n independent distributors — each with its own
// provider fleet — and returns a System routing across them.
func shardFixture(t *testing.T, shards, provsPerShard int) (*System, []*core.Distributor) {
	t.Helper()
	urls := make([]string, shards)
	dists := make([]*core.Distributor, shards)
	for s := 0; s < shards; s++ {
		fleet, err := provider.NewFleet()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < provsPerShard; i++ {
			mem, err := provider.New(provider.Info{
				Name: fmt.Sprintf("s%dp%d", s, i), PL: privacy.High, CL: 1,
			}, provider.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := fleet.Add(mem); err != nil {
				t.Fatal(err)
			}
		}
		dist, err := core.New(core.Config{Fleet: fleet, Secret: []byte{byte(s + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		dists[s] = dist
		srv := httptest.NewServer(NewDistributorServer(dist))
		t.Cleanup(srv.Close)
		urls[s] = srv.URL
	}
	sys, err := NewSystem(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, dists
}

// TestSystemRoutesFilesToOwningShard pins the routing contract: every
// file lands on exactly the shard Locate names, account state exists on
// every shard, and all files remain readable through the System.
func TestSystemRoutesFilesToOwningShard(t *testing.T) {
	sys, dists := shardFixture(t, 3, 4)
	if err := sys.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddPassword("alice", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	files := map[string][]byte{}
	owners := map[string]int{}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("doc-%03d.txt", i)
		data := make([]byte, 600+rng.Intn(900))
		rng.Read(data)
		files[name] = data
		if _, err := sys.Upload("alice", "pw", name, data, privacy.High, UploadOptions{}); err != nil {
			t.Fatalf("upload %s: %v", name, err)
		}
		loc := sys.Locate("alice", name)
		owners[name] = loc.Shard
	}
	// The namespace must actually spread: with 24 files on 3 shards, an
	// empty shard would mean the router is degenerate.
	counts := make([]int, 3)
	for _, s := range owners {
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no files; histogram %v", s, counts)
		}
	}

	for name, want := range files {
		got, err := sys.GetFile("alice", "pw", name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file %s corrupted through system", name)
		}
		// Only the owning shard holds the file's metadata.
		for s := range dists {
			_, err := sys.Shard(s).ChunkCount("alice", "pw", name)
			if s == owners[name] && err != nil {
				t.Fatalf("owner shard %d missing %s: %v", s, name, err)
			}
			if s != owners[name] && err == nil {
				t.Fatalf("shard %d unexpectedly holds %s (owner %d)", s, name, owners[name])
			}
		}
	}

	// Aggregate stats must account for every file exactly once.
	st, err := sys.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != len(files) {
		t.Fatalf("aggregate Files = %d, want %d", st.Files, len(files))
	}
	if st.Clients != 1 {
		t.Fatalf("aggregate Clients = %d, want 1", st.Clients)
	}
	if len(st.PerProvider) != 3*4 {
		t.Fatalf("PerProvider length %d, want 12", len(st.PerProvider))
	}
}

// TestSystemLocateIsStable pins that routing depends only on the URL
// set, not its order — restarts with a reshuffled config must not
// repartition the namespace.
func TestSystemLocateIsStable(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3"}
	sysA, err := NewSystem(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []string{"http://c:3", "http://a:1", "http://b:2"}
	sysB, err := NewSystem(shuffled, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("f%d", i)
		a := sysA.Locate("u", name)
		b := sysB.Locate("u", name)
		if a.ShardURL != b.ShardURL {
			t.Fatalf("file %s: owner %s under one order, %s under another", name, a.ShardURL, b.ShardURL)
		}
	}
	if _, err := NewSystem([]string{"http://a:1", "http://a:1"}, nil); err == nil {
		t.Fatal("duplicate shard URLs accepted")
	}
}

// TestShardProxyServesSingleDistributorProtocol drives the proxy with a
// plain Client: the whole single-distributor wire surface — JSON ops,
// streaming, stats, scrub, health — must work unchanged against a
// sharded backend.
func TestShardProxyServesSingleDistributorProtocol(t *testing.T) {
	// Two fixture shards plus one this test can take down at the end.
	base, _ := shardFixture(t, 2, 4)
	mortal := httptest.NewServer(NewDistributorServer(memDistributor(t, 4)))
	t.Cleanup(mortal.Close)
	sys, err := NewSystem(append(base.URLs(), mortal.URL), nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(NewShardProxy(sys))
	t.Cleanup(proxy.Close)
	cl := NewClient(proxy.URL, proxy.Client())

	if err := cl.RegisterClient("bob"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddPassword("bob", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("px-%02d.bin", i)
		data := make([]byte, 900+rng.Intn(600))
		rng.Read(data)
		files[name] = data
		if _, err := cl.Upload("bob", "pw", name, data, privacy.High, UploadOptions{}); err != nil {
			t.Fatalf("upload via proxy: %v", err)
		}
	}
	for name, want := range files {
		got, err := cl.GetFile("bob", "pw", name)
		if err != nil {
			t.Fatalf("get via proxy: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file %s corrupted through proxy", name)
		}
	}

	// Streaming endpoints forward to the owning shard.
	big := make([]byte, 150_000)
	rng.Read(big)
	if _, err := cl.UploadFrom("bob", "pw", "stream.bin", bytes.NewReader(big), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatalf("stream upload via proxy: %v", err)
	}
	var out bytes.Buffer
	n, err := cl.GetFileTo(&out, "bob", "pw", "stream.bin")
	if err != nil {
		t.Fatalf("stream download via proxy: %v", err)
	}
	if n != int64(len(big)) || !bytes.Equal(out.Bytes(), big) {
		t.Fatalf("streamed file corrupted through proxy (%d of %d bytes)", n, len(big))
	}

	// Chunk-level ops route to the same owner the upload picked.
	nChunks, err := cl.ChunkCount("bob", "pw", "px-00.bin")
	if err != nil || nChunks < 1 {
		t.Fatalf("chunk_count via proxy: n=%d err=%v", nChunks, err)
	}
	chunk, err := cl.GetChunk("bob", "pw", "px-00.bin", 0)
	if err != nil || len(chunk) == 0 {
		t.Fatalf("get_chunk via proxy: %v", err)
	}
	if err := cl.RemoveFile("bob", "pw", "px-11.bin"); err != nil {
		t.Fatalf("remove via proxy: %v", err)
	}
	if _, err := cl.GetFile("bob", "pw", "px-11.bin"); err == nil {
		t.Fatal("removed file still readable via proxy")
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 12 { // 12 small + stream - removed
		t.Fatalf("stats via proxy: Files = %d, want 12", st.Files)
	}
	if _, err := cl.Scrub(); err != nil {
		t.Fatalf("scrub via proxy: %v", err)
	}
	if err := cl.Health(); err != nil {
		t.Fatalf("health via proxy: %v", err)
	}
	// Metrics is a merged route like stats: the shards' counters add up,
	// and every upload over the wire is a streamed one.
	m, err := cl.Metrics()
	if err != nil || m.Uploads != 13 || m.StreamUploads != 13 {
		t.Fatalf("metrics via proxy: uploads=%d stream=%d err=%v, want 13 and 13", m.Uploads, m.StreamUploads, err)
	}
	if rep, err := cl.HealthReport(); err != nil || len(rep.Providers) != 3*4 {
		t.Fatalf("health report via proxy: %d provider rows, %v", len(rep.Providers), err)
	}
	// The per-shard routes say what they are and where to ask instead.
	_, tablesErr := cl.ChunkTable()
	_, decomErr := cl.Decommission(0)
	for _, err := range []error{tablesErr, decomErr} {
		if err == nil || !strings.Contains(err.Error(), "per-shard") || !strings.Contains(err.Error(), mortal.URL) {
			t.Fatalf("per-shard route via proxy: %v, want a refusal naming the shard URLs", err)
		}
		onlySentinel(t, "per-shard route via proxy", err, nil)
	}

	// Errors keep their identity through two hops: client → proxy → shard.
	if _, err := cl.GetFile("bob", "wrong", "px-00.bin"); err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("want access-denied through proxy, got %v", err)
	}

	// /v1/locate agrees with client-side routing.
	resp, err := proxy.Client().Get(proxy.URL + "/v1/locate?client=bob&filename=px-00.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("locate status %d", resp.StatusCode)
	}
	var loc Location
	if err := json.NewDecoder(resp.Body).Decode(&loc); err != nil {
		t.Fatal(err)
	}
	want := sys.Locate("bob", "px-00.bin")
	if loc != want {
		t.Fatalf("proxy locate %+v != system locate %+v", loc, want)
	}

	// The proxy only forwards: on every owner-routed row its answer is the
	// owning shard's, byte for byte — to a request the shard refuses (wrong
	// password, every row) and to one it serves (the read-only rows; a
	// mutation cannot be applied twice alike). One request shape fits all
	// rows: keys in the query and in a JSON body that the octet routes take
	// as their payload.
	exchange := func(rt *route, base, pw string) string {
		q := url.Values{"client": {"bob"}, "filename": {"px-00.bin"}, "pl": {"3"}, "serial": {"0"}}
		body := fmt.Sprintf(`{"client":"bob","password":%q,"filename":"px-00.bin","serial":0,"offset":3,"length":40}`, pw)
		req, err := http.NewRequest(rt.method, base+rt.path+"?"+q.Encode(), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", octetStream)
		req.Header.Set(headerPassword, base64.StdEncoding.EncodeToString([]byte(pw)))
		resp, err := proxy.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %q %q %q", resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get(headerErrorCode), got)
	}
	for _, rt := range routes {
		if rt.class != ownerRouted {
			continue
		}
		for _, pw := range []string{"wrong", "pw"} {
			if pw == "pw" && !rt.retry && rt != routeStreamFile {
				continue
			}
			direct, proxied := exchange(rt, want.ShardURL, pw), exchange(rt, proxy.URL, pw)
			if direct != proxied || (pw == "wrong") != strings.HasPrefix(direct, `403 "text/plain; charset=utf-8" "auth"`) {
				t.Errorf("%s with password %q:\n shard: %.200s\n proxy: %.200s", rt.path, pw, direct, proxied)
			}
		}
	}

	// A shard that is down is 502 for the files it owns — a transport
	// failure at the client, not a verdict on the file — and nobody else's
	// problem.
	mortal.Close()
	orphaned, served := 0, 0
	for name, data := range files {
		if name == "px-11.bin" {
			continue // removed above
		}
		got, err := cl.GetFile("bob", "pw", name)
		if sys.Locate("bob", name).ShardURL != mortal.URL {
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s lives on a healthy shard yet reads %v", name, err)
			}
			served++
			continue
		}
		orphaned++
		onlySentinel(t, "file on the dead shard", err, nil)
		if err == nil || !strings.Contains(err.Error(), "status 502") {
			t.Fatalf("%s lives on the dead shard: got %v, want the proxy's 502", name, err)
		}
	}
	if orphaned == 0 || served == 0 {
		t.Fatalf("%d files on the dead shard, %d elsewhere: the case needs both", orphaned, served)
	}
}
