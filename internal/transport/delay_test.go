package transport

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

// serveAtOnce sends n single-key GETs to h at once and returns how long
// the last one took to be answered.
func serveAtOnce(t *testing.T, h http.Handler, n int) time.Duration {
	t.Helper()
	codes := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/chunks/k", nil))
			codes[i] = rec.Code
		}()
	}
	wg.Wait()
	took := time.Since(start)
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	return took
}

// oneKeyServer is a provider server holding the key k.
func oneKeyServer(t *testing.T) http.Handler {
	t.Helper()
	mem := provider.MustNew(provider.Info{Name: "p", PL: privacy.High, CL: 1}, provider.Options{})
	if err := mem.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	return NewProviderServer(mem)
}

// TestDelayRequestsOverlap: a round trip is paid side by side, so eight
// requests in flight to one provider all finish within two round trips.
func TestDelayRequestsOverlap(t *testing.T) {
	const rtt = 20 * time.Millisecond
	if took := serveAtOnce(t, DelayRequests(oneKeyServer(t), rtt), 8); took < rtt || took >= 2*rtt {
		t.Fatalf("8 concurrent requests at a %v round trip took %v, want [%v, %v)", rtt, took, rtt, 2*rtt)
	}
}

// TestQueueRequestsServesOneAtATime: a queue serves one request at a
// time, so four requests in flight to one provider take four service
// times.
func TestQueueRequestsServesOneAtATime(t *testing.T) {
	const service = 5 * time.Millisecond
	if took := serveAtOnce(t, QueueRequests(oneKeyServer(t), service), 4); took < 4*service {
		t.Fatalf("4 concurrent requests at a %v service time took %v, want at least %v", service, took, 4*service)
	}
}

// s3Verbs offers a provider to the distributor with S3's verbs only:
// single-key GET, PUT and DELETE, and DeleteObjects as DeleteMany. It
// hides the multi-get and View, so provider.GetMany reads one key per
// request, as it would from S3.
type s3Verbs struct{ provider.Provider }

func (p s3Verbs) DeleteMany(keys []string) []error { return provider.DeleteMany(p.Provider, keys) }

// rttGrid is the cloud round-trip regime's grid: a loopback round trip
// and two cloud-like ones, each at two request parallelisms.
var rttGrid = struct {
	rtts []time.Duration
	pars []int
}{[]time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond}, []int{4, 16}}

// newRTTFleet is a defended benchmark's fleet: six loopback providers
// behind a round trip of rtt, with cmd/distributor's defaults (a 50 ms
// hedge cap, a window of 4 stripes) at the given Parallelism.
func newRTTFleet(b *testing.B, rtt time.Duration, par int, s3 bool) *loopbackFleet {
	return newDelayedFleet(b, 6, 30*time.Second, rtt, s3, core.Config{
		HedgeAfter:   50 * time.Millisecond,
		StreamWindow: 4,
		Parallelism:  par,
	})
}

// defendedRTTUpload is the file both RTT benchmarks move: 4 MiB at PL3
// (512 chunks of 8 KiB), a quarter misleading bytes, RAID-6.
func defendedRTTUpload(b *testing.B, f *loopbackFleet, data []byte) {
	if _, err := f.dist.Upload("a", "pw", "f", data, privacy.High, core.UploadOptions{Assurance: raid.RAID6, MisleadFraction: 0.25}); err != nil {
		b.Fatal(err)
	}
}

// reportRTT adds the provider requests and the hedged reads per op.
func reportRTT(b *testing.B, reqs int, f *loopbackFleet, before core.OpMetrics) {
	b.ReportMetric(float64(reqs)/float64(b.N), "provider-reqs/op")
	b.ReportMetric(float64(f.dist.Metrics().HedgedReads-before.HedgedReads)/float64(b.N), "hedged/op")
}

// BenchmarkUploadDefendedRTT is defended-large's put at a provider round
// trip of 0, 2 and 20 ms and a request Parallelism of 4 and 16. At a
// cloud round trip a put's time is its provider requests over its
// Parallelism, so this is the grid a per-provider dispatcher is judged
// on. The file is removed untimed after each upload.
func BenchmarkUploadDefendedRTT(b *testing.B) {
	data := patterned(4 << 20)
	for _, rtt := range rttGrid.rtts {
		for _, par := range rttGrid.pars {
			b.Run(fmt.Sprintf("rtt=%v/P%d", rtt, par), func(b *testing.B) {
				f := newRTTFleet(b, rtt, par, false)
				before, reqs := f.dist.Metrics(), 0
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.resetRequests()
					defendedRTTUpload(b, f, data)
					b.StopTimer()
					reqs += f.allRequests()
					if err := f.dist.RemoveFile("a", "pw", "f"); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.StopTimer()
				reportRTT(b, reqs, f, before)
			})
		}
	}
}

// BenchmarkGetFileDefendedRTT is the same file's whole read on the same
// grid, once over the provider hop's multi-get and once over S3's verbs,
// where each chunk is its own GET. hedged/op counts the reads that
// raced a hedge although every provider is healthy: at a cloud round
// trip each one is a billable request.
func BenchmarkGetFileDefendedRTT(b *testing.B) {
	data := patterned(4 << 20)
	for _, rtt := range rttGrid.rtts {
		for _, par := range rttGrid.pars {
			for _, verbs := range []string{"multi-get", "s3-verbs"} {
				b.Run(fmt.Sprintf("rtt=%v/P%d/%s", rtt, par, verbs), func(b *testing.B) {
					f := newRTTFleet(b, rtt, par, verbs == "s3-verbs")
					defendedRTTUpload(b, f, data)
					f.resetRequests()
					before := f.dist.Metrics()
					b.SetBytes(int64(len(data)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if got, err := f.dist.GetFile("a", "pw", "f"); err != nil || len(got) != len(data) {
							b.Fatalf("GetFile: %d bytes, err=%v", len(got), err)
						}
					}
					b.StopTimer()
					reportRTT(b, f.allRequests(), f, before)
				})
			}
		}
	}
}
