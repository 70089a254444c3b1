package attack

import (
	"net/http/httptest"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/transport"
)

func TestSniffTransportCollectsNetworkedDumps(t *testing.T) {
	urls := make([]string, 2)
	want := map[string]string{}
	for i := 0; i < 2; i++ {
		name := "prov" + string(rune('A'+i))
		mem, err := provider.New(provider.Info{Name: name, PL: privacy.High, CL: 1}, provider.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Put("k"+string(rune('0'+i)), []byte("secret"+name)); err != nil {
			t.Fatal(err)
		}
		want["k"+string(rune('0'+i))] = name
		srv := httptest.NewServer(transport.NewProviderServer(mem))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}

	blobs, err := SniffTransport(urls)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 2 {
		t.Fatalf("sniffed %d blobs, want 2: %v", len(blobs), blobs)
	}
	for _, b := range blobs {
		if want[b.Key] != b.Provider {
			t.Fatalf("blob %q attributed to %q, want %q", b.Key, b.Provider, want[b.Key])
		}
		if string(b.Data) != "secret"+b.Provider {
			t.Fatalf("blob %q data = %q", b.Key, b.Data)
		}
	}
	// Sorted by (provider, key), same contract as DumpProviders.
	if blobs[0].Provider > blobs[1].Provider {
		t.Fatalf("blobs not sorted: %v", blobs)
	}
}

func TestSniffTransportErrorsOnUnreachableProvider(t *testing.T) {
	mem, err := provider.New(provider.Info{Name: "up", PL: privacy.High, CL: 1}, provider.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(transport.NewProviderServer(mem))
	dead := httptest.NewServer(transport.NewProviderServer(mem))
	dead.Close()
	t.Cleanup(srv.Close)

	if _, err := SniffTransport([]string{srv.URL, dead.URL}); err == nil {
		t.Fatal("sniff with one dead provider: want error, got nil")
	}
}
