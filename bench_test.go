package privcloud

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates the corresponding artifact via the
// internal/experiments package; cmd/benchrunner prints the same rows in
// table form.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clientside"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/mining"
	"repro/internal/raid"
)

// BenchmarkTable4RegressionAttack regenerates Table IV: the full-data
// regression and the three misleading per-fragment fits.
func BenchmarkTable4RegressionAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.FragmentModels) != 3 {
			b.Fatal("wrong fragment count")
		}
	}
	r, _ := experiments.Table4()
	b.ReportMetric(r.FragmentErrs[0], "frag1-relerr")
	b.ReportMetric(r.PairwiseDist, "frag-pairwise-dist")
}

// BenchmarkTable4SystemAttack runs the end-to-end version: upload through
// the distributor, insiders mine their own providers.
func BenchmarkTable4SystemAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4System(300, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if r.Full.FitErr != nil {
			b.Fatal(r.Full.FitErr)
		}
	}
	r, _ := experiments.Table4System(300, 1)
	b.ReportMetric(r.TruthErrFull, "whole-data-relerr")
	b.ReportMetric(r.TruthErrFragMax, "fragment-worst-relerr")
}

// BenchmarkFig1Distribution regenerates the Fig. 1 single-distributor
// data path: fragment + stripe + scatter + read back (the paper's
// "Distribution time").
func BenchmarkFig1Distribution(b *testing.B) {
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("file=%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				r, err := experiments.DistributionTime(size, 8, raid.RAID5, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if !r.ReadBackOK {
					b.Fatal("consistency check failed")
				}
			}
		})
	}
}

// BenchmarkFig2MultiDistributor regenerates the Fig. 2 extended
// architecture drill: upload via primary, retrieval failover to
// secondaries.
func BenchmarkFig2MultiDistributor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.MultiDistributor(3, 6, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !r.FailoverRetrievalOK {
			b.Fatal("failover retrieval failed")
		}
	}
}

// BenchmarkFig3Walkthrough regenerates the Fig. 3 application
// architecture: tables I–III and the accept/deny request pair.
func BenchmarkFig3Walkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Figure3Distributor()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.GetChunk("Bob", "x9pr", "file1", 0); err != nil {
			b.Fatal(err)
		}
		if _, err := d.GetChunk("Bob", "aB1c", "file1", 0); err == nil {
			b.Fatal("denial case served")
		}
	}
}

// BenchmarkFig4FullClustering regenerates Fig. 4: hierarchical clustering
// of the entire GPS data set (>3000 observations, 30 users).
func BenchmarkFig4FullClustering(b *testing.B) {
	cfg := dataset.DefaultGPSConfig()
	_, points, err := dataset.GenerateGPS(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vectors, _ := dataset.UserFeatureVectors(points)
		if _, err := mining.ClusterPoints(vectors, mining.AverageLinkage); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Fig6FragmentClustering regenerates Figs. 5 and 6: the two
// 500-observation fragment dendrograms plus the migration statistics.
func BenchmarkFig5Fig6FragmentClustering(b *testing.B) {
	cfg := dataset.DefaultGPSConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.GPSFigures(cfg, 500)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Fragments) != 2 {
			b.Fatal("wrong fragment count")
		}
	}
	r, _ := experiments.GPSFigures(cfg, 500)
	b.ReportMetric(r.TruthARI[0], "full-ari")
	b.ReportMetric(r.FullARI[0], "frag1-vs-full-ari")
	b.ReportMetric(float64(r.MigratedUsers[0]), "frag1-migrated-users")
}

// BenchmarkDistributionTimeBySize regenerates the §VIII-B distribution-
// time series across file sizes.
func BenchmarkDistributionTimeBySize(b *testing.B) {
	for _, size := range []int{32 << 10, 128 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := experiments.DistributionTime(size, 6, raid.RAID5, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributionTimeByProviders sweeps the fleet size.
func BenchmarkDistributionTimeByProviders(b *testing.B) {
	for _, n := range []int{3, 6, 12} {
		b.Run(fmt.Sprintf("providers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.DistributionTime(256<<10, n, raid.RAID5, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationChunkSize sweeps chunk size against attack quality
// (§VII-C).
func BenchmarkAblationChunkSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationChunkSize([]int{8 << 10, 2 << 10, 512}, 300, 4, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 3 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkAblationMislead sweeps decoy volume against attack quality and
// overhead (§VII-D).
func BenchmarkAblationMislead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMislead([]int{0, 50, 150}, 200, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRAID compares availability and storage overhead of
// none/RAID5/RAID6 (§III-B).
func BenchmarkAblationRAID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRAID(3, 0.1, 1, 6, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCompromise sweeps the outside attacker's foothold.
func BenchmarkAblationCompromise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCompromise(5, 300, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncryptionVsFragmentation regenerates the §VII-E comparison.
func BenchmarkEncryptionVsFragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.EncryptionVsFragmentation([]int{1 << 20, 16 << 20}, 64<<10, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if points[0].Speedup <= 1 {
			b.Fatal("fragmentation not cheaper")
		}
	}
	points, _ := experiments.EncryptionVsFragmentation([]int{16 << 20}, 64<<10, 4096)
	b.ReportMetric(points[0].Speedup, "speedup-16MiB")
}

// BenchmarkBasketRuleAttack measures the association-rule attack (the
// third mining algorithm the paper names) on whole vs fragmented logs.
func BenchmarkBasketRuleAttack(b *testing.B) {
	cfg := dataset.DefaultBasketConfig()
	cfg.Transactions = 600
	for i := 0; i < b.N; i++ {
		points, err := experiments.BasketRuleExperiment(cfg, 4, 0.05, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		if points[0].PlantedFound == 0 {
			b.Fatal("full attack found nothing")
		}
	}
}

// BenchmarkUploadWithReplicas measures the assurance knob's write cost.
func BenchmarkUploadWithReplicas(b *testing.B) {
	for _, replicas := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			sys, err := NewSystem(SystemConfig{Providers: benchProviders(8)})
			if err != nil {
				b.Fatal(err)
			}
			_ = sys.RegisterClient("c")
			_ = sys.AddPassword("c", "pw", High)
			data := dataset.RandomBytes(256<<10, rand.New(rand.NewSource(9)))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("f%d", i)
				if _, err := sys.Upload("c", "pw", name, data, Moderate, UploadOptions{Replicas: replicas}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecommission measures provider evacuation.
func BenchmarkDecommission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := NewSystem(SystemConfig{Providers: benchProviders(8)})
		if err != nil {
			b.Fatal(err)
		}
		_ = sys.RegisterClient("c")
		_ = sys.AddPassword("c", "pw", High)
		data := dataset.RandomBytes(256<<10, rand.New(rand.NewSource(int64(i))))
		if _, err := sys.Upload("c", "pw", "f", data, Moderate, UploadOptions{}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sys.DecommissionProvider("p0"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUploadThroughput measures raw distributor upload bandwidth.
func BenchmarkUploadThroughput(b *testing.B) {
	sys, err := NewSystem(SystemConfig{Providers: benchProviders(8)})
	if err != nil {
		b.Fatal(err)
	}
	_ = sys.RegisterClient("c")
	_ = sys.AddPassword("c", "pw", High)
	data := dataset.RandomBytes(512<<10, rand.New(rand.NewSource(1)))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, err := sys.Upload("c", "pw", name, data, Moderate, UploadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetFileThroughput measures retrieval bandwidth (parallel chunk
// fetch + reassembly).
func BenchmarkGetFileThroughput(b *testing.B) {
	sys, err := NewSystem(SystemConfig{Providers: benchProviders(8)})
	if err != nil {
		b.Fatal(err)
	}
	_ = sys.RegisterClient("c")
	_ = sys.AddPassword("c", "pw", High)
	data := dataset.RandomBytes(512<<10, rand.New(rand.NewSource(2)))
	if _, err := sys.Upload("c", "pw", "f", data, Moderate, UploadOptions{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.GetFile("c", "pw", "f"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetFileDegraded measures retrieval bandwidth with one provider
// down (RAID-5 reconstruction on the hot path).
func BenchmarkGetFileDegraded(b *testing.B) {
	sys, err := NewSystem(SystemConfig{Providers: benchProviders(8)})
	if err != nil {
		b.Fatal(err)
	}
	_ = sys.RegisterClient("c")
	_ = sys.AddPassword("c", "pw", High)
	data := dataset.RandomBytes(512<<10, rand.New(rand.NewSource(3)))
	if _, err := sys.Upload("c", "pw", "f", data, Moderate, UploadOptions{}); err != nil {
		b.Fatal(err)
	}
	_ = sys.SetProviderOutage("p0", true)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.GetFile("c", "pw", "f"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRAID5Encode and BenchmarkRAID6Encode measure the parity layer.
func BenchmarkRAID5Encode(b *testing.B) {
	shards := make([][]byte, 4)
	for i := range shards {
		shards[i] = dataset.RandomBytes(64<<10, rand.New(rand.NewSource(int64(i))))
	}
	b.SetBytes(int64(4 * 64 << 10))
	for i := 0; i < b.N; i++ {
		if _, err := raid.Encode(raid.RAID5, shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRAID6Encode(b *testing.B) {
	shards := make([][]byte, 4)
	for i := range shards {
		shards[i] = dataset.RandomBytes(64<<10, rand.New(rand.NewSource(int64(i))))
	}
	b.SetBytes(int64(4 * 64 << 10))
	for i := 0; i < b.N; i++ {
		if _, err := raid.Encode(raid.RAID6, shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRAID6ReconstructTwoLost measures worst-case recovery.
func BenchmarkRAID6ReconstructTwoLost(b *testing.B) {
	shards := make([][]byte, 4)
	for i := range shards {
		shards[i] = dataset.RandomBytes(64<<10, rand.New(rand.NewSource(int64(i))))
	}
	s, err := raid.Encode(raid.RAID6, shards)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * 64 << 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp, _ := raid.Encode(raid.RAID6, shards)
		cp.Shards[0] = nil
		cp.Shards[2] = nil
		b.StartTimer()
		if err := cp.Reconstruct(); err != nil {
			b.Fatal(err)
		}
	}
	_ = s
}

// BenchmarkDHTLookup measures Chord-style lookup cost for the client-side
// distributor variant (§IV-C).
func BenchmarkDHTLookup(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("node-%04d", i)
			}
			ring, err := clientside.NewRing(names...)
			if err != nil {
				b.Fatal(err)
			}
			members := ring.Members()
			totalHops := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ring.Lookup(members[i%len(members)], clientside.ChunkKey("file", i))
				if err != nil {
					b.Fatal(err)
				}
				totalHops += res.Hops
			}
			b.ReportMetric(float64(totalHops)/float64(b.N), "hops/op")
		})
	}
}

// BenchmarkHierarchicalClustering measures the mining substrate itself at
// the paper's 30-user scale and beyond.
func BenchmarkHierarchicalClustering(b *testing.B) {
	for _, n := range []int{30, 100} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mining.ClusterPoints(pts, mining.AverageLinkage); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLinearRegression measures the regression substrate at Table IV
// scale and at sweep scale.
func BenchmarkLinearRegression(b *testing.B) {
	for _, n := range []int{12, 1000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			recs := dataset.GenerateBiddingHistory(n, dataset.PaperBiddingModel(), rand.New(rand.NewSource(5)))
			x, y := dataset.Features(recs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mining.LinearRegression(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchProviders(n int) []ProviderSpec {
	specs := make([]ProviderSpec, n)
	for i := range specs {
		specs[i] = ProviderSpec{Name: fmt.Sprintf("p%d", i), Privacy: High, Cost: i % 4}
	}
	return specs
}

// BenchmarkGetRangePointQuery measures the fragmented point query that
// §VII-E credits over encryption.
func BenchmarkGetRangePointQuery(b *testing.B) {
	sys, err := NewSystem(SystemConfig{Providers: benchProviders(8)})
	if err != nil {
		b.Fatal(err)
	}
	_ = sys.RegisterClient("c")
	_ = sys.AddPassword("c", "pw", High)
	data := dataset.RandomBytes(1<<20, rand.New(rand.NewSource(11)))
	if _, err := sys.Upload("c", "pw", "f", data, Moderate, UploadOptions{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.GetRange("c", "pw", "f", (i*4096)%(len(data)-4096), 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncVsFragLive times the measured §VII-E comparison end to end.
func BenchmarkEncVsFragLive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.EncryptionVsFragmentationLive([]int{1 << 20}, 4096, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !points[0].BothCorrect {
			b.Fatal("wrong answer")
		}
	}
	points, _ := experiments.EncryptionVsFragmentationLive([]int{1 << 20}, 4096, 1)
	b.ReportMetric(points[0].Speedup, "bytes-speedup")
}

// BenchmarkHealthPredictionAttack regenerates the risk-prediction
// experiment (the paper's health-privacy motivation).
func BenchmarkHealthPredictionAttack(b *testing.B) {
	cfg := dataset.DefaultHealthConfig()
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.HealthPredictionExperiment(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		if points[0].Failed {
			b.Fatal("full attack failed")
		}
	}
}

// BenchmarkCostTradeoff regenerates the §IV-B billing comparison.
func BenchmarkCostTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CostTradeoff(3, 128<<10, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if r.SensitiveOnTrusted != 1.0 {
			b.Fatal("placement policy violated")
		}
	}
	r, _ := experiments.CostTradeoff(3, 128<<10, 1)
	b.ReportMetric(r.Ratio, "cost-ratio")
}

// BenchmarkScrub times a full integrity pass over a populated system and
// reports the provider calls it makes: on a healthy fleet a scrub only
// gets, so the calls the health tracker records are its gets.
func BenchmarkScrub(b *testing.B) {
	sys, err := NewSystem(SystemConfig{Providers: benchProviders(8)})
	if err != nil {
		b.Fatal(err)
	}
	calls := func() (n int64) {
		for _, h := range sys.Health().Providers {
			n += h.Successes + h.Failures
		}
		return n
	}
	_ = sys.RegisterClient("c")
	_ = sys.AddPassword("c", "pw", High)
	for i := 0; i < 8; i++ {
		data := dataset.RandomBytes(128<<10, rand.New(rand.NewSource(int64(i))))
		if _, err := sys.Upload("c", "pw", fmt.Sprintf("f%d", i), data, Moderate, UploadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	before := calls()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Scrub()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Unrepairable != 0 {
			b.Fatal("healthy system reports damage")
		}
	}
	b.ReportMetric(float64(calls()-before)/float64(b.N), "gets/op")
}
