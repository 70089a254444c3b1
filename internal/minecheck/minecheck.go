// Package minecheck is the adversary-in-the-loop check: it stands up
// the real networked system on loopback (distributor shards + HTTP
// providers, the cloudbench fixture), drives mixed tenant traffic, then
// runs the full data-mining arsenal — regression, hierarchical
// clustering, association rules, naive Bayes and kNN prediction — over
// what malicious providers actually observed: their stored blobs, their
// request timing logs, and the shard placement of every file. Each
// configuration cell gets attack-quality scores normalised to [0,1]
// (0 = attacker learned nothing, 1 = perfect recovery), so a sweep
// traces the privacy-vs-performance frontier and a CI gate can pin the
// defended cells below stored thresholds.
package minecheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/localfleet"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
	"repro/internal/transport"
)

// Cell is one point of the configuration sweep.
type Cell struct {
	PL      privacy.Level `json:"pl"`
	Raid    raid.Level    `json:"raid"`
	Mislead bool          `json:"mislead"`
	Cache   bool          `json:"cache"`
	Hedge   bool          `json:"hedge"`
	Shards  int           `json:"shards"`
}

func (c Cell) String() string {
	onoff := func(b bool, name string) string {
		if b {
			return "+" + name
		}
		return "-" + name
	}
	return fmt.Sprintf("PL%d/raid%d%s%s%s/%dsh",
		int(c.PL), int(c.Raid),
		onoff(c.Mislead, "mislead"), onoff(c.Cache, "cache"), onoff(c.Hedge, "hedge"),
		c.Shards)
}

// Config parameterises one campaign run.
type Config struct {
	Seed int64
	Cell Cell
	// Providers per shard; 0 means 6 (enough for RAID6 stripes with
	// slack for least-load placement to matter).
	Providers int
	// PlantLeak deliberately skips decoy injection while the cell still
	// claims the defended posture — the known-bad configuration the
	// test suite uses to prove the gate actually fires. Never set
	// outside tests.
	PlantLeak bool
}

// Scores are the attack-quality metrics for one cell, each normalised
// to [0,1] where 0 means the attacker learned nothing beyond chance and
// 1 means perfect recovery of the protected structure. Insider variants
// take the best single compromised provider; Pooled variants give the
// adversary every provider of every shard (full collusion).
type Scores struct {
	// RegressionInsider/Pooled: holdout R² of the attacker's fitted
	// pricing rule against data from the true model (clamped to [0,1]).
	RegressionInsider float64 `json:"regressionInsider"`
	RegressionPooled  float64 `json:"regressionPooled"`
	// ClusterInsider/Pooled: adjusted Rand index of the dendrogram cut
	// against the true behavioural groups (clamped at 0).
	ClusterInsider float64 `json:"clusterInsider"`
	ClusterPooled  float64 `json:"clusterPooled"`
	// RuleInsider/Pooled: fraction of planted association rules the
	// Apriori attack recovers.
	RuleInsider float64 `json:"ruleInsider"`
	RulePooled  float64 `json:"rulePooled"`
	// NBInsider/Pooled and KNNInsider/Pooled: excess holdout accuracy of
	// the attacker's risk classifier, max(0, 2·acc − 1).
	NBInsider  float64 `json:"nbInsider"`
	NBPooled   float64 `json:"nbPooled"`
	KNNInsider float64 `json:"knnInsider"`
	KNNPooled  float64 `json:"knnPooled"`
	// CoOwnershipF1: pairwise F1 of chunk co-ownership inferred from
	// pooled request-timing logs (the burst side channel). Reported on
	// the frontier; fragmentation does not close this channel.
	CoOwnershipF1 float64 `json:"coOwnershipF1"`
	// TenantConfusion: fraction of timing-inferred co-owned pairs that
	// straddle tenants. Any correctly isolated system scores exactly 0;
	// a cache or placement leak that mixes tenants shows up here.
	TenantConfusion float64 `json:"tenantConfusion"`
	// ShardCorrelation: how concentrated one tenant's files are on a
	// single distributor shard, normalised so uniform spread is 0 and
	// all-on-one-shard is 1 (0 when only one shard exists).
	ShardCorrelation float64 `json:"shardCorrelation"`
}

// Result is one campaign outcome.
type Result struct {
	Cell   Cell   `json:"cell"`
	Seed   int64  `json:"seed"`
	Scores Scores `json:"scores"`
	Ops    int    `json:"ops"`
	Chunks int    `json:"chunks"`
	// OpsPerSec is wall-clock throughput of the traffic phase. It and a
	// sharded cell's Scores.ShardCorrelation (see Run) are the
	// non-deterministic fields; determinism checks compare the rest.
	OpsPerSec float64 `json:"opsPerSec"`
}

// file is one tenant upload in the workload.
type file struct {
	tenant, name string
	data         []byte
}

// workload sizes — small enough that a 128-cell sweep finishes in
// seconds, large enough that every attack succeeds decisively on the
// undefended control cell.
const (
	bidRows     = 240
	gpsUsers    = 12
	gpsGroups   = 3
	gpsObsEach  = 40
	healthRows  = 240
	holdoutRows = 120
	basketTxns  = 500
	knnK        = 5
	minSupport  = 0.02
	minConfid   = 0.6
)

// Run stands up the cell's deployment, drives the tenant workload, and
// mounts every attack. Deterministic given (Seed, Cell) — serial driver,
// Parallelism 1, instant providers, hedging enabled but clamped far
// above loopback latency, and logical-epoch timing stamps — except in a
// sharded cell's ShardCorrelation: the client's shard ring is keyed on
// the distributor URLs, whose loopback ports are random, so which shard
// a file lands on varies from run to run.
func Run(cfg Config) (*Result, error) {
	cell := cfg.Cell
	if cell.Shards < 1 {
		cell.Shards = 1
	}
	provs := cfg.Providers
	if provs == 0 {
		provs = 6
	}

	var ep atomic.Int64
	var spies []*spy
	cluster, err := localfleet.Start(localfleet.Config{
		Shards:    cell.Shards,
		Providers: provs,
		Hook: func(p *provider.MemProvider) {
			spies = append(spies, newSpy(p, &ep))
		},
		Distributor: func(shard int, c *core.Config) {
			c.Secret = []byte(fmt.Sprintf("minecheck-%d-%d", cfg.Seed, shard))
			c.MisleadSeed = cfg.Seed + int64(shard)
			c.Parallelism = 1
			if cell.Cache {
				c.CacheBytes = 4 << 20
			}
			if cell.Hedge {
				// Hedging on, but the clamp floor (HedgeAfter/8) sits far
				// above loopback service time, so the path is armed yet
				// never fires — deterministic with the machinery live.
				c.HedgeAfter = 5 * time.Second
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	hc := &http.Client{Timeout: 30 * time.Second, Transport: transport.NewPooledTransport()}
	sys, err := transport.NewShardedClient(cluster.DistURLs, hc)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	sub := func() int64 { return rng.Int63() }

	// ---- datasets (ground truth the attacks are scored against) ----
	trueModel := dataset.PaperBiddingModel()
	bids := dataset.GenerateBiddingHistory(bidRows, trueModel, rand.New(rand.NewSource(sub())))
	bidHoldout := dataset.GenerateBiddingHistory(holdoutRows, trueModel, rand.New(rand.NewSource(sub())))

	gpsCfg := dataset.GPSConfig{Users: gpsUsers, Groups: gpsGroups, ObsPerUser: gpsObsEach, AnchorNoise: 0.004, Seed: sub()}
	profiles, gpsPts, err := dataset.GenerateGPS(gpsCfg)
	if err != nil {
		return nil, err
	}
	groupOf := map[int]int{}
	for _, p := range profiles {
		groupOf[p.User] = p.Group
	}

	healthCfg := dataset.HealthConfig{Patients: healthRows, HighRiskFraction: 0.4, Seed: sub()}
	health, err := dataset.GenerateHealthRecords(healthCfg)
	if err != nil {
		return nil, err
	}
	healthHoldout, err := dataset.GenerateHealthRecords(dataset.HealthConfig{
		Patients: holdoutRows, HighRiskFraction: 0.4, Seed: sub(),
	})
	if err != nil {
		return nil, err
	}

	basketCfg := dataset.DefaultBasketConfig()
	basketCfg.Transactions = basketTxns
	basketCfg.Seed = sub()
	baskets, err := dataset.GenerateBaskets(basketCfg)
	if err != nil {
		return nil, err
	}
	var basketBuf bytes.Buffer
	for _, t := range baskets {
		basketBuf.WriteString(strings.Join(t, ","))
		basketBuf.WriteByte('\n')
	}

	// ---- decoys (the mislead defence, when the cell turns it on) ----
	// Decoy volumes: ≥1× the real rows for the model-shift strategies,
	// 3× for clustering (decoys must outweigh real observations to move
	// a user's feature vector off its group) and 1.5× for prediction
	// (pulling class statistics firmly past coin-flip).
	decoyRNG := rand.New(rand.NewSource(sub()))
	healthDec, err := healthDecoys(healthRows*3/2, sub())
	if err != nil {
		return nil, err
	}
	decoysFor := map[string][][]byte{
		"bidding.csv": biddingDecoys(bidRows, decoyRNG),
		"gps.csv":     gpsDecoys(3*gpsUsers*gpsObsEach, gpsUsers, decoyRNG),
		"baskets.txt": basketDecoys(basketTxns, basketCfg, decoyRNG),
		"health.csv":  healthDec,
	}

	// ---- tenants and uploads (one epoch per logical operation) ----
	files := []file{
		{"acme", "bidding.csv", dataset.BiddingCSV(bids)},
		{"acme", "baskets.txt", basketBuf.Bytes()},
		{"acme", "health.csv", dataset.HealthCSV(health)},
		{"globex", "gps.csv", dataset.GPSCSV(gpsPts)},
		{"globex", "notes.txt", dataset.TextRecords(160, rand.New(rand.NewSource(sub())))},
	}
	// Filler uploads widen the per-tenant file population so the shard
	// placement metric measures routing, not two-file coin flips.
	for i := 0; i < 4; i++ {
		for _, tenant := range []string{"acme", "globex"} {
			files = append(files, file{
				tenant, fmt.Sprintf("log-%d.txt", i),
				dataset.TextRecords(40+20*i, rand.New(rand.NewSource(sub()))),
			})
		}
	}
	for _, tenant := range []string{"acme", "globex"} {
		if err := sys.RegisterClient(tenant); err != nil {
			return nil, err
		}
		if err := sys.AddPassword(tenant, "pw-"+tenant, cell.PL); err != nil {
			return nil, err
		}
	}

	traceAt := func() []attack.TimedAccess {
		var all []attack.TimedAccess
		for _, s := range spies {
			all = append(all, s.Trace()...)
		}
		return all
	}

	ops := 0
	epochOwner := map[int64]file{}
	for _, f := range files {
		e := ep.Add(1)
		ops++
		epochOwner[e] = f
		opts := transport.UploadOptions{Assurance: cell.Raid}
		if cell.Mislead && !cfg.PlantLeak {
			opts.MisleadLines = decoysFor[f.name]
		}
		if _, err := sys.Upload(f.tenant, "pw-"+f.tenant, f.name, f.data, cell.PL, opts); err != nil {
			return nil, fmt.Errorf("upload %s/%s: %w", f.tenant, f.name, err)
		}
	}
	// Every key put while a file's upload epoch was current belongs to
	// that file — the serial driver makes the attribution exact, and
	// keying on the epoch stamp keeps it independent of how the
	// per-provider logs interleave.
	keyFile := map[string]string{}   // provider key → "tenant/name"
	keyTenant := map[string]string{} // provider key → tenant
	for _, a := range traceAt() {
		if a.Op != "put" {
			continue
		}
		if f, ok := epochOwner[a.T]; ok {
			keyFile[a.Key] = f.tenant + "/" + f.name
			keyTenant[a.Key] = f.tenant
		}
	}

	// ---- mixed read traffic: cold reads, then warm re-reads ----
	reads := []int{0, 3, 1, 4, 2, 0, 3, 1, 0, 3, 2, 4}
	start := time.Now()
	for _, fi := range reads {
		f := files[fi]
		ep.Add(1)
		ops++
		got, err := sys.GetFile(f.tenant, "pw-"+f.tenant, f.name)
		if err != nil {
			return nil, fmt.Errorf("read %s/%s: %w", f.tenant, f.name, err)
		}
		if !bytes.Equal(got, f.data) {
			return nil, fmt.Errorf("read %s/%s: bytes differ from upload (mislead strip or assembly broken)", f.tenant, f.name)
		}
	}
	elapsed := time.Since(start)

	// ---- the attacks ----
	var res Result
	res.Cell = cell
	res.Seed = cfg.Seed
	res.Ops = ops
	if elapsed > 0 {
		res.OpsPerSec = float64(len(reads)) / elapsed.Seconds()
	}

	var allURLs []string
	for _, us := range cluster.ProviderURLs {
		allURLs = append(allURLs, us...)
	}
	pooled, err := attack.SniffTransport(allURLs)
	if err != nil {
		return nil, err
	}
	res.Chunks = len(pooled)
	var insiders [][]attack.Blob
	for _, u := range allURLs {
		blobs, err := attack.SniffTransport([]string{u})
		if err != nil {
			return nil, err
		}
		insiders = append(insiders, blobs)
	}

	score := func(f func([]attack.Blob) float64) (insider, pool float64) {
		for _, b := range insiders {
			if s := f(b); s > insider {
				insider = s
			}
		}
		return insider, f(pooled)
	}

	res.Scores.RegressionInsider, res.Scores.RegressionPooled = score(func(b []attack.Blob) float64 {
		return regressionScore(attack.BiddingRegressionAttack(b), bidHoldout)
	})
	res.Scores.ClusterInsider, res.Scores.ClusterPooled = score(func(b []attack.Blob) float64 {
		return clusterScore(b, groupOf)
	})
	res.Scores.RuleInsider, res.Scores.RulePooled = score(func(b []attack.Blob) float64 {
		// A competent attacker triages stolen chunks by content before
		// mining, so only basket-looking blobs feed Apriori.
		basketBlobs := attack.FilterKind(b, attack.KindBaskets)
		return ruleScore(attack.BasketRuleAttack(basketBlobs, minSupport, minConfid), basketCfg)
	})
	res.Scores.NBInsider, res.Scores.NBPooled = score(func(b []attack.Blob) float64 {
		return excessAccuracy(attack.HealthPredictionAttack(b, healthHoldout))
	})
	res.Scores.KNNInsider, res.Scores.KNNPooled = score(func(b []attack.Blob) float64 {
		return excessAccuracy(attack.HealthKNNAttack(b, healthHoldout, knnK))
	})

	// ---- the side channels: timing and placement ----
	var gets []attack.TimedAccess
	for _, a := range traceAt() {
		if a.Op == "get" {
			gets = append(gets, a)
		}
	}
	sort.Slice(gets, func(i, j int) bool {
		if gets[i].T != gets[j].T {
			return gets[i].T < gets[j].T
		}
		if gets[i].Provider != gets[j].Provider {
			return gets[i].Provider < gets[j].Provider
		}
		return gets[i].Key < gets[j].Key
	})
	groups := attack.CoOwnershipGroups(gets)
	// Score only over keys the read trace exposed: parity chunks that no
	// healthy read touches are invisible to this channel by design.
	seen := map[string]bool{}
	for _, a := range gets {
		seen[a.Key] = true
	}
	fileTruth := map[string]string{}
	tenantTruth := map[string]string{}
	for k := range seen {
		if f, ok := keyFile[k]; ok {
			fileTruth[k] = f
			tenantTruth[k] = keyTenant[k]
		}
	}
	_, _, res.Scores.CoOwnershipF1 = attack.PairScore(groups, fileTruth)
	res.Scores.TenantConfusion = attack.CrossLabelFraction(groups, tenantTruth)

	res.Scores.ShardCorrelation = shardCorrelation(sys, files, cell.Shards)
	return &res, nil
}

// regressionScore evaluates the attacker's fitted model on fresh data
// from the true pricing rule: R² on the holdout, clamped to [0,1]. A
// model poisoned toward the decoy rule predicts worse than the mean
// bid, scoring 0.
func regressionScore(r attack.BiddingResult, holdout []dataset.BidRecord) float64 {
	if r.FitErr != nil || r.Model == nil {
		return 0
	}
	x, y := dataset.Features(holdout)
	rmse, err := r.Model.RMSE(x, y)
	if err != nil {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var variance float64
	for _, v := range y {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(y))
	if variance == 0 {
		return 0
	}
	return clamp01(1 - rmse*rmse/variance)
}

// clusterScore cuts the attacker's dendrogram at the true group count
// and scores the flat clustering with the adjusted Rand index.
func clusterScore(blobs []attack.Blob, groupOf map[int]int) float64 {
	res, err := attack.GPSClusteringAttack(blobs, gpsGroups)
	if err != nil || len(res.UserIDs) < 2 {
		return 0
	}
	truth := make([]int, len(res.UserIDs))
	for i, uid := range res.UserIDs {
		g, ok := groupOf[uid]
		if !ok {
			g = -1 - i // decoy-only "user": its own singleton class
		}
		truth[i] = g
	}
	ari, err := metrics.AdjustedRandIndex(res.Labels, truth)
	if err != nil {
		return 0
	}
	return clamp01(ari)
}

// ruleScore is the fraction of planted associations recovered.
func ruleScore(r attack.BasketResult, cfg dataset.BasketConfig) float64 {
	if r.FitErr != nil {
		return 0
	}
	planted := cfg.PlantedRuleNames()
	if len(planted) == 0 {
		return 0
	}
	found := 0
	for _, p := range planted {
		if attack.HasRule(r.Rules, p[0], p[1]) {
			found++
		}
	}
	return float64(found) / float64(len(planted))
}

// excessAccuracy maps holdout accuracy to [0,1] excess over coin-flip.
func excessAccuracy(r attack.PredictionResult) float64 {
	if r.FitErr != nil {
		return 0
	}
	return clamp01(2*r.Accuracy - 1)
}

// shardCorrelation measures tenant→shard placement concentration: for
// each tenant, the modal shard's share of its files, normalised so 1/S
// (uniform) maps to 0 and 1 (all co-located) maps to 1, averaged over
// tenants. The mean is the gateable statistic — a routing leak that
// correlates files by tenant concentrates *every* tenant's namespace,
// while an unlucky hash draw spikes one tenant at a time. One shard
// carries no information: 0.
func shardCorrelation(sys *transport.Client, files []file, shards int) float64 {
	if shards <= 1 {
		return 0
	}
	byTenant := map[string]map[int]int{}
	total := map[string]int{}
	for _, f := range files {
		loc := sys.Locate(f.tenant, f.name)
		if byTenant[f.tenant] == nil {
			byTenant[f.tenant] = map[int]int{}
		}
		byTenant[f.tenant][loc.Shard]++
		total[f.tenant]++
	}
	var sum float64
	for tenant, counts := range byTenant {
		modal := 0
		for _, n := range counts {
			if n > modal {
				modal = n
			}
		}
		frac := float64(modal) / float64(total[tenant])
		uniform := 1.0 / float64(shards)
		sum += clamp01((frac - uniform) / (1 - uniform))
	}
	return sum / float64(len(byTenant))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
