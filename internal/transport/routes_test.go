package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
)

// onlySentinel fails unless err is want and no other row of the error
// table; a nil want means no row at all.
func onlySentinel(t *testing.T, what string, err, want error) {
	t.Helper()
	if want != nil && !errors.Is(err, want) {
		t.Errorf("%s: got %v, want %v", what, err, want)
	}
	for _, row := range wireErrors {
		if row.err != want && errors.Is(err, row.err) {
			t.Errorf("%s: %v also matches %v", what, err, row.err)
		}
	}
}

// TestErrorTableRoundTrips: a server failing with a row's sentinel is
// that sentinel — and only that one — at the client, with the server's
// text and nothing added, whether the response crossed one hop or came
// through a proxy. The message carries every word the old client guessed
// identities from.
func TestErrorTableRoundTrips(t *testing.T) {
	var row atomic.Int32
	failing := func(i int) error {
		return fmt.Errorf("%w: concurrent chunk-01.bin snapshot.png serial 7", wireErrors[i].err)
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeError(w, failing(int(row.Load())))
	}))
	t.Cleanup(stub.Close)
	sys, err := NewShardedClient([]string{stub.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(NewShardProxy(sys))
	t.Cleanup(proxy.Close)
	for i, want := range wireErrors {
		row.Store(int32(i))
		for hop, c := range map[string]*Client{"direct": NewClient(stub.URL, nil), "proxied": NewClient(proxy.URL, nil)} {
			_, err := c.GetFile("c", "pw", "f")
			onlySentinel(t, hop+" "+want.code, err, want.err)
			if err == nil || err.Error() != failing(i).Error() {
				t.Errorf("%s %s: text %q, want the server's %q", hop, want.code, err, failing(i))
			}
		}
	}

	// A server that predates the code header is read by status alone: the
	// first row with that status, the message still verbatim.
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status := map[string]int{routeGetFile.path: 404, routeGetChunk.path: 409, routeGetRange.path: 502}[r.URL.Path]
		http.Error(w, "core: something about a snapshot", status)
	}))
	t.Cleanup(old.Close)
	c := NewClient(old.URL, nil)
	_, err = c.GetFile("c", "pw", "f")
	onlySentinel(t, "bare 404", err, core.ErrNoSuchFile)
	_, err = c.GetChunk("c", "pw", "f", 0)
	onlySentinel(t, "bare 409", err, core.ErrExists)
	if err.Error() != "core: something about a snapshot" {
		t.Errorf("bare 409 text %q", err)
	}
	_, err = c.GetRange("c", "pw", "f", 0, 1)
	onlySentinel(t, "bare 502", err, nil)
}

// faceAPI is the operation set that a one-distributor Client, a sharded
// Client and a Client behind a ShardProxy all serve, for the tests that
// drive each face alike.
type faceAPI interface {
	RegisterClient(name string) error
	AddPassword(client, password string, pl privacy.Level) error
	Upload(client, password, filename string, data []byte, pl privacy.Level, opts UploadOptions) (core.FileInfo, error)
	UploadFrom(client, password, filename string, r io.Reader, pl privacy.Level, opts UploadOptions) (core.FileInfo, error)
	GetChunk(client, password, filename string, serial int) ([]byte, error)
	GetFile(client, password, filename string) ([]byte, error)
	GetRange(client, password, filename string, offset, length int) ([]byte, error)
	ChunkCount(client, password, filename string) (int, error)
	GetSnapshot(client, password, filename string, serial int) ([]byte, error)
	RemoveChunk(client, password, filename string, serial int) error
}

// TestErrorIdentityOnEveryFace drives the real failures through a
// one-distributor Client, a sharded Client (the "System" face) and a
// Client behind a ShardProxy: names that contain the words the old
// client matched on ("concurrent", "chunk", "snapshot", "serial") change
// nothing, and a sharded or proxied error reads exactly like the owning
// shard's. Every per-file operation runs on every face.
func TestErrorIdentityOnEveryFace(t *testing.T) {
	single, _ := distributorFixture(t, 4)
	sys, _ := shardFixture(t, 3, 4)
	proxied, _ := shardFixture(t, 3, 4)
	proxy := httptest.NewServer(NewShardProxy(proxied))
	t.Cleanup(proxy.Close)
	ownerOf := func(c *Client) func(file string) faceAPI {
		return func(f string) faceAPI { return NewClient(c.Locate("concurrent", f).ShardURL, nil) }
	}

	for _, face := range []struct {
		name  string
		api   faceAPI
		owner func(file string) faceAPI // the distributor that answers for file, addressed directly
	}{
		{"Client", single, func(string) faceAPI { return single }},
		{"System", sys, ownerOf(sys)},
		{"ShardProxy", NewClient(proxy.URL, proxy.Client()), ownerOf(proxied)},
	} {
		t.Run(face.name, func(t *testing.T) {
			if err := face.api.RegisterClient("concurrent"); err != nil {
				t.Fatal(err)
			}
			// One distributor says the account exists; the sharded faces
			// read that same answer off every shard as "already done".
			err := face.api.RegisterClient("concurrent")
			if face.name == "Client" {
				onlySentinel(t, "duplicate register", err, core.ErrExists)
			} else if err != nil {
				t.Errorf("duplicate register is not repaired idempotently: %v", err)
			}
			if err := face.api.AddPassword("concurrent", "pw", privacy.High); err != nil {
				t.Fatal(err)
			}
			if _, err := face.api.Upload("concurrent", "pw", "real.bin", []byte("payload"), privacy.High, UploadOptions{}); err != nil {
				t.Fatal(err)
			}
			for _, probe := range []struct {
				what, file string
				want       error
				do         func(api faceAPI, file string) error
			}{
				{"missing chunk-01.bin", "chunk-01.bin", core.ErrNoSuchFile, func(a faceAPI, f string) error { _, err := a.GetFile("concurrent", "pw", f); return err }},
				{"missing serial", "real.bin", core.ErrNoSuchChunk, func(a faceAPI, f string) error { _, err := a.GetChunk("concurrent", "pw", f, 99); return err }},
				{"wrong password", "real.bin", core.ErrAuth, func(a faceAPI, f string) error { _, err := a.GetFile("concurrent", "nope", f); return err }},
				{"range past the end", "real.bin", core.ErrRange, func(a faceAPI, f string) error { _, err := a.GetRange("concurrent", "pw", f, 1<<20, 4); return err }},
				{"duplicate file", "real.bin", core.ErrExists, func(a faceAPI, f string) error {
					_, err := a.Upload("concurrent", "pw", f, []byte("again"), privacy.High, UploadOptions{})
					return err
				}},
				{"missing snapshot.png", "snapshot.png", core.ErrNoSuchFile, func(a faceAPI, f string) error { _, err := a.ChunkCount("concurrent", "pw", f); return err }},
				{"missing snapshot", "real.bin", core.ErrNoSnapshot, func(a faceAPI, f string) error { _, err := a.GetSnapshot("concurrent", "pw", f, 0); return err }},
				{"remove missing serial", "real.bin", core.ErrNoSuchChunk, func(a faceAPI, f string) error { return a.RemoveChunk("concurrent", "pw", f, 99) }},
			} {
				err := probe.do(face.api, probe.file)
				onlySentinel(t, probe.what, err, probe.want)
				if direct := probe.do(face.owner(probe.file), probe.file); err == nil || direct == nil || err.Error() != direct.Error() {
					t.Errorf("%s: %q through %s, %q from the owning distributor", probe.what, err, face.name, direct)
				}
			}
		})
	}
}

// TestEveryRouteIsServedByDistributorAndProxy ranges over the table: both
// muxes answer every row (whatever they make of an empty request), and a
// path in no row reaches the client as a transport error, never as a core
// sentinel such as "no such file".
func TestEveryRouteIsServedByDistributorAndProxy(t *testing.T) {
	sys, dists := shardFixture(t, 2, 4)
	for name, h := range map[string]http.Handler{"distributor": NewDistributorServer(dists[0]), "proxy": NewShardProxy(sys)} {
		for _, rt := range routes {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, strings.NewReader("{}")))
			if rec.Code == http.StatusMethodNotAllowed || rec.Header().Get(headerErrorCode) == "no_route" {
				t.Errorf("%s does not serve %s %s: %d %s", name, rt.method, rt.path, rec.Code, rec.Body)
			}
		}
		srv := httptest.NewServer(h)
		c := NewClient(srv.URL, srv.Client())
		for _, stray := range []*route{{method: "GET", path: "/v1/no_such_route", retry: true}, {method: "GET", path: routeUpload.path}} {
			_, err := c.send(srv.URL, stray, nil)
			if err == nil {
				t.Errorf("%s answered %s %s", name, stray.method, stray.path)
			}
			onlySentinel(t, name+" "+stray.path, err, nil)
		}
		srv.Close()
	}
}

// TestMergedRoutesMergeEveryField pins the one merge rule on canned shard
// answers: counters add, flags OR, rows concatenate, and the two fields
// with a rule of their own (health status, checkpoint age) follow it.
func TestMergedRoutesMergeEveryField(t *testing.T) {
	var urls []string
	for i := 1; i <= 2; i++ {
		n := int64(i)
		answers := map[string]any{
			routeHealth.path: core.HealthReport{
				Status:    map[int64]string{1: "ok", 2: "degraded"}[n],
				Providers: []core.ProviderHealth{{Provider: fmt.Sprint("p", n)}},
				Cache:     core.CacheStats{Hits: 10 * n, Entries: int(n), Capacity: 100},
				WAL:       core.WALHealth{Enabled: n == 2, Policy: "grouped", NextLSN: uint64(5 * n), Records: 7 * n, LastCheckpointAgeMs: 300 * n},
			},
			routeMetrics.path: core.OpMetrics{Uploads: n, HedgedReads: 2 * n, Cache: core.CacheStats{Misses: n}, WAL: core.WALStats{Enabled: n == 1, Fsyncs: 4 * n}},
			routeStats.path:   core.Stats{Clients: 3, Files: int(n), PerProvider: []int{int(n), 0}},
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, answers[r.URL.Path])
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	sys, err := NewShardedClient(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(NewShardProxy(sys))
	t.Cleanup(proxy.Close)
	c := NewClient(proxy.URL, proxy.Client())

	h, err := c.HealthReport()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || len(h.Providers) != 2 || h.Providers[1].Provider != "p2" {
		t.Errorf("merged health status/providers: %+v", h)
	}
	if h.Cache != (core.CacheStats{Hits: 30, Entries: 3, Capacity: 200}) {
		t.Errorf("merged health dropped or mis-added the cache section: %+v", h.Cache)
	}
	if h.WAL != (core.WALHealth{Enabled: true, Policy: "grouped", NextLSN: 15, Records: 21, LastCheckpointAgeMs: 600}) {
		t.Errorf("merged health dropped or mis-added the wal section: %+v", h.WAL)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	want := core.OpMetrics{Uploads: 3, HedgedReads: 6, Cache: core.CacheStats{Misses: 3}, WAL: core.WALStats{Enabled: true, Fsyncs: 12}}
	if m != want {
		t.Errorf("merged metrics %+v, want %+v", m, want)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(st); string(got) != `{"Clients":3,"Files":3,"Chunks":0,"ParityShards":0,"MirrorShards":0,"Snapshots":0,"Stripes":0,"PerProvider":[1,0,2,0]}` {
		t.Errorf("merged stats %s", got)
	}
}
