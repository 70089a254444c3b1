package transport

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/privacy"
	"repro/internal/provider"
)

// TestRemoteProviderGetOversizeError pins the truncation guard: a blob
// body larger than the transfer cap must surface as an explicit error,
// never as silently cut-off bytes that would fail a checksum far away.
func TestRemoteProviderGetOversizeError(t *testing.T) {
	lowerBlobCap(t, 1<<10)

	mem, remote := newProviderPair(t, provider.Info{Name: "N", PL: privacy.High, CL: 1})
	if err := mem.Put("big", bytes.Repeat([]byte{7}, 2<<10)); err != nil {
		t.Fatal(err)
	}
	data, err := remote.Get("big")
	if err == nil {
		t.Fatalf("Get oversize blob: returned %d bytes, want error", len(data))
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Get oversize blob: err = %v, want byte-limit error", err)
	}
	// A blob exactly at the cap still round-trips.
	if err := mem.Put("fit", bytes.Repeat([]byte{8}, 1<<10)); err != nil {
		t.Fatal(err)
	}
	got, err := remote.Get("fit")
	if err != nil || len(got) != 1<<10 {
		t.Fatalf("Get at-cap blob: %d bytes, err=%v", len(got), err)
	}
}

// TestDrainPreservesKeepAlive pins the drain fix: error responses with
// multi-kilobyte bodies must be read to EOF so the connection stays
// reusable — before the fix anything past 4 KiB poisoned keep-alive and
// every provider error cost a fresh TCP connection.
func TestDrainPreservesKeepAlive(t *testing.T) {
	bigBody := bytes.Repeat([]byte{'e'}, 8<<10)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/info", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(infoDTO{Name: "E", PL: 3, CL: 1})
	})
	mux.HandleFunc("/v1/chunks/", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write(bigBody)
	})
	srv := httptest.NewUnstartedServer(mux)
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	remote, err := DialProvider(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Put("k", []byte("v")); err == nil {
		t.Fatal("Put against erroring server: want error")
	}
	warm := conns.Load()
	for i := 0; i < 4; i++ {
		if err := remote.Put("k", []byte("v")); err == nil {
			t.Fatal("Put against erroring server: want error")
		}
	}
	if got := conns.Load(); got != warm {
		t.Fatalf("4 error responses opened %d new connections, want 0 (bodies not drained)", got-warm)
	}
}

// TestDownProbeDeadline pins the probe's own deadline and who pays it:
// against a stalled provider Probe answers "down" in about a second, not
// after the 10s blob-transfer timeout it used to inherit, and Down —
// which placement calls under the table lock — never waits at all.
func TestDownProbeDeadline(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/info", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(infoDTO{Name: "S", PL: 3, CL: 1})
	})
	mux.HandleFunc("/v1/health", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // stall until the probe gives up
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	remote, err := DialProvider(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if remote.Down() {
		t.Fatal("a provider that answered the dial reads down before anything failed")
	}
	if elapsed := time.Since(start); elapsed > probeTimeout/10 {
		t.Fatalf("Down() took %v: it must answer from memory", elapsed)
	}
	start = time.Now()
	if !remote.Probe() {
		t.Fatal("stalled provider probed as up")
	}
	if elapsed := time.Since(start); elapsed < probeTimeout/2 || elapsed > 5*probeTimeout {
		t.Fatalf("probe took %v, want about %v", elapsed, probeTimeout)
	}
	if !remote.Down() {
		t.Fatal("Down() did not keep the probe's answer")
	}
}
