package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/transport"
)

// cliFixture stands up a distributor server and returns a client plus a
// temp directory for file arguments.
func cliFixture(t *testing.T) (*transport.Client, string) {
	t.Helper()
	srv := cliServer(t)
	return transport.NewClient(srv.URL, srv.Client()), t.TempDir()
}

func cliServer(t *testing.T) *httptest.Server {
	t.Helper()
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p := provider.MustNew(provider.Info{
			Name: fmt.Sprintf("cli%d", i), PL: privacy.High, CL: privacy.CostLevel(i % 4),
		}, provider.Options{})
		if err := fleet.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	d, err := core.New(core.Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(transport.NewDistributorServer(d))
	t.Cleanup(srv.Close)
	return srv
}

func TestCLIWorkflow(t *testing.T) {
	c, dir := cliFixture(t)

	steps := [][]string{
		{"register", "bob"},
		{"passwd", "bob", "x9pr", "3"},
	}
	for _, s := range steps {
		if err := run(c, s[0], s[1:], 1, false, 0); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}

	// Upload a local file.
	src := filepath.Join(dir, "in.dat")
	content := bytes.Repeat([]byte("the quick brown fox "), 2000)
	if err := os.WriteFile(src, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "upload", []string{"bob", "x9pr", "file1", src, "2"}, 1, false, 0); err != nil {
		t.Fatalf("upload: %v", err)
	}

	// Retrieve it back and compare.
	dst := filepath.Join(dir, "out.dat")
	if err := run(c, "get", []string{"bob", "x9pr", "file1", dst}, 1, false, 0); err != nil {
		t.Fatalf("get: %v", err)
	}
	back, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, content) {
		t.Fatal("CLI round trip mismatch")
	}

	// Metadata commands.
	if err := run(c, "count", []string{"bob", "x9pr", "file1"}, 1, false, 0); err != nil {
		t.Fatalf("count: %v", err)
	}
	if err := run(c, "tables", nil, 1, false, 0); err != nil {
		t.Fatalf("tables: %v", err)
	}
	if err := run(c, "stats", nil, 1, false, 0); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := run(c, "scrub", nil, 1, false, 0); err != nil {
		t.Fatalf("scrub: %v", err)
	}

	// Update a chunk and read its snapshot.
	upd := filepath.Join(dir, "upd.dat")
	if err := os.WriteFile(upd, []byte("updated contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "update-chunk", []string{"bob", "x9pr", "file1", "0", upd}, 1, false, 0); err != nil {
		t.Fatalf("update-chunk: %v", err)
	}
	if err := run(c, "snapshot", []string{"bob", "x9pr", "file1", "0"}, 1, false, 0); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := run(c, "get-chunk", []string{"bob", "x9pr", "file1", "1"}, 1, false, 0); err != nil {
		t.Fatalf("get-chunk: %v", err)
	}
	if err := run(c, "get-range", []string{"bob", "x9pr", "file1", "100", "50"}, 1, false, 0); err != nil {
		t.Fatalf("get-range: %v", err)
	}

	// Decommission a provider and keep reading.
	if err := run(c, "decommission", []string{"1"}, 1, false, 0); err != nil {
		t.Fatalf("decommission: %v", err)
	}
	if err := run(c, "get", []string{"bob", "x9pr", "file1", dst}, 1, false, 0); err != nil {
		t.Fatalf("get after decommission: %v", err)
	}

	// Remove.
	if err := run(c, "rm-chunk", []string{"bob", "x9pr", "file1", "0"}, 1, false, 0); err != nil {
		t.Fatalf("rm-chunk: %v", err)
	}
	if err := run(c, "rm", []string{"bob", "x9pr", "file1"}, 1, false, 0); err != nil {
		t.Fatalf("rm: %v", err)
	}
	if err := run(c, "get", []string{"bob", "x9pr", "file1", dst}, 1, false, 0); err == nil {
		t.Fatal("get after rm succeeded")
	}
}

func TestCLIErrors(t *testing.T) {
	c, dir := cliFixture(t)
	if err := run(c, "register", []string{"bob"}, 1, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "register", []string{"bob"}, 1, false, 0); err == nil {
		t.Fatal("duplicate register succeeded")
	}
	if err := run(c, "passwd", []string{"bob", "pw", "notanumber"}, 1, false, 0); err == nil {
		t.Fatal("bad level accepted")
	}
	if err := run(c, "upload", []string{"bob", "pw", "f", filepath.Join(dir, "missing.dat")}, 1, false, 0); err == nil {
		t.Fatal("missing local file accepted")
	}
	if err := run(c, "get-chunk", []string{"bob", "pw", "f", "NaN"}, 1, false, 0); err == nil {
		t.Fatal("bad serial accepted")
	}
	if err := run(c, "decommission", []string{"NaN"}, 1, false, 0); err == nil {
		t.Fatal("bad index accepted")
	}
}

// TestCLIAgainstShardProxy: the operator commands work with -server
// pointed at a shard proxy. health needs the merged metrics route, which
// the proxy used to answer 404; tables is per-shard and must say so.
func TestCLIAgainstShardProxy(t *testing.T) {
	sys, err := transport.NewSystem([]string{cliServer(t).URL, cliServer(t).URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(transport.NewShardProxy(sys))
	t.Cleanup(proxy.Close)
	c := transport.NewClient(proxy.URL, proxy.Client())
	for _, cmd := range []string{"health", "stats", "scrub"} {
		if err := run(c, cmd, nil, 1, false, 0); err != nil {
			t.Errorf("%s through the proxy: %v", cmd, err)
		}
	}
	if err := run(c, "tables", nil, 1, false, 0); err == nil || !strings.Contains(err.Error(), "per-shard") {
		t.Errorf("tables through the proxy: %v, want a refusal that says per-shard", err)
	}
}

func TestCLIRaid6AndMislead(t *testing.T) {
	c, dir := cliFixture(t)
	_ = run(c, "register", []string{"bob"}, 1, false, 0)
	_ = run(c, "passwd", []string{"bob", "pw", "3"}, 1, false, 0)
	src := filepath.Join(dir, "in.dat")
	content := bytes.Repeat([]byte{0xAB}, 50_000)
	if err := os.WriteFile(src, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "upload", []string{"bob", "pw", "f6", src}, 2, true, 0.2); err != nil {
		t.Fatalf("raid6+mislead upload: %v", err)
	}
	dst := filepath.Join(dir, "out.dat")
	if err := run(c, "get", []string{"bob", "pw", "f6", dst}, 1, false, 0); err != nil {
		t.Fatal(err)
	}
	back, _ := os.ReadFile(dst)
	if !bytes.Equal(back, content) {
		t.Fatal("raid6+mislead round trip mismatch")
	}
}

// TestCLIStreamingPutCat: upload streams a local file or stdin, cat
// streams a file back out.
func TestCLIStreamingPutCat(t *testing.T) {
	c, dir := cliFixture(t)
	_ = run(c, "register", []string{"bob"}, 1, false, 0)
	_ = run(c, "passwd", []string{"bob", "pw", "3"}, 1, false, 0)
	src := filepath.Join(dir, "in.dat")
	content := bytes.Repeat([]byte("stream me around the fleet "), 4000)
	if err := os.WriteFile(src, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "upload", []string{"bob", "pw", "fs", src, "2"}, 1, false, 0); err != nil {
		t.Fatalf("upload: %v", err)
	}
	stdin, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	saved := os.Stdin
	os.Stdin = stdin
	err = run(c, "upload", []string{"bob", "pw", "piped", "-", "2"}, 1, false, 0)
	os.Stdin = saved
	if err != nil {
		t.Fatalf("upload from stdin: %v", err)
	}
	for _, name := range []string{"fs", "piped"} {
		dst := filepath.Join(dir, name+".out")
		if err := run(c, "cat", []string{"bob", "pw", name, dst}, 1, false, 0); err != nil {
			t.Fatalf("cat %s: %v", name, err)
		}
		if back, err := os.ReadFile(dst); err != nil || !bytes.Equal(back, content) {
			t.Fatalf("upload/cat round trip of %s mismatch: %v", name, err)
		}
		// The buffered get reads the streamed object too.
		if err := run(c, "get", []string{"bob", "pw", name, dst}, 1, false, 0); err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		if back, _ := os.ReadFile(dst); !bytes.Equal(back, content) {
			t.Fatalf("get of %s mismatch", name)
		}
	}
	if err := run(c, "upload", []string{"bob", "pw", "fs", src}, 1, false, 0); err == nil {
		t.Fatal("duplicate upload succeeded")
	}
	if err := run(c, "cat", []string{"bob", "pw", "missing", filepath.Join(dir, "x")}, 1, false, 0); err == nil {
		t.Fatal("cat of missing file succeeded")
	}
}
