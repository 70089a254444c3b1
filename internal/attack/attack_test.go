package attack

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/mining"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// fixture uploads a dataset into a distributed fleet and returns both.
func fixture(t *testing.T, nProviders int, data []byte, pl privacy.Level, opts core.UploadOptions) (*core.Distributor, *provider.Fleet) {
	t.Helper()
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nProviders; i++ {
		p := provider.MustNew(provider.Info{
			Name: string(rune('A' + i)), PL: privacy.High, CL: privacy.CostLevel(i % 4),
		}, provider.Options{})
		if err := fleet.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	d, err := core.New(core.Config{Fleet: fleet, StripeWidth: nProviders - 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("victim"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("victim", "pw", privacy.High); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upload("victim", "pw", "data.csv", data, pl, opts); err != nil {
		t.Fatal(err)
	}
	return d, fleet
}

func TestDumpProvidersSortedAndComplete(t *testing.T) {
	_, fleet := fixture(t, 5, dataset.BiddingCSV(dataset.PaperTable4()), privacy.Moderate, core.UploadOptions{})
	all := make([]int, fleet.Len())
	for i := range all {
		all[i] = i
	}
	blobs, err := DumpProviders(fleet, all)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < fleet.Len(); i++ {
		p, _ := fleet.At(i)
		total += p.Len()
	}
	if len(blobs) != total {
		t.Fatalf("blobs = %d, fleet holds %d", len(blobs), total)
	}
	for i := 1; i < len(blobs); i++ {
		if blobs[i-1].Provider > blobs[i].Provider ||
			(blobs[i-1].Provider == blobs[i].Provider && blobs[i-1].Key >= blobs[i].Key) {
			t.Fatal("blobs not sorted")
		}
	}
	if _, err := DumpProviders(fleet, []int{99}); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestCompromiseRandom(t *testing.T) {
	_, fleet := fixture(t, 6, dataset.BiddingCSV(dataset.PaperTable4()), privacy.Moderate, core.UploadOptions{})
	idx, blobs, err := CompromiseRandom(fleet, 2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 {
		t.Fatalf("compromised %d", len(idx))
	}
	names := map[string]bool{}
	for _, i := range idx {
		p, _ := fleet.At(i)
		names[p.Info().Name] = true
	}
	for _, b := range blobs {
		if !names[b.Provider] {
			t.Fatalf("blob from uncompromised provider %s", b.Provider)
		}
	}
	if _, _, err := CompromiseRandom(fleet, 99, nil); err == nil {
		t.Fatal("k > fleet accepted")
	}
}

func TestInsiderRecoversModelFromWholeData(t *testing.T) {
	// Baseline: single provider holds everything → the attack recovers
	// the planted pricing rule (the paper's first Hercules scenario).
	model := dataset.PaperBiddingModel()
	recs := dataset.GenerateBiddingHistory(400, model, rand.New(rand.NewSource(7)))
	csvData := dataset.BiddingCSV(recs)

	fleet, _ := provider.NewFleet(provider.MustNew(provider.Info{Name: "Titans", PL: privacy.High, CL: 3}, provider.Options{}))
	d, err := core.New(core.Config{Fleet: fleet, StripeWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.RegisterClient("hercules")
	_ = d.AddPassword("hercules", "pw", privacy.High)
	if _, err := d.Upload("hercules", "pw", "bids.csv", csvData, privacy.Public, core.UploadOptions{NoParity: true}); err != nil {
		t.Fatal(err)
	}

	blobs, err := DumpProviders(fleet, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	res := BiddingRegressionAttack(blobs)
	if res.FitErr != nil {
		t.Fatalf("whole-data attack failed: %v", res.FitErr)
	}
	if res.RowsRecovered < 350 {
		t.Fatalf("rows recovered = %d of 400", res.RowsRecovered)
	}
	truth := &mining.RegressionModel{Coeffs: []float64{model.A, model.B, model.C}, Intercept: model.D}
	relErr, err := mining.RelativeCoefficientError(res.Model, truth)
	if err != nil {
		t.Fatal(err)
	}
	if relErr > 0.25 {
		t.Fatalf("insider on whole data should recover model; relErr = %v (model %v)", relErr, res.Model)
	}
}

func TestFragmentationDegradesInsiderModel(t *testing.T) {
	// Distributed case: each insider sees only its own fragments; its
	// fitted model must be far further from the truth than the whole-data
	// fit, and per-provider models must disagree with each other.
	model := dataset.PaperBiddingModel()
	recs := dataset.GenerateBiddingHistory(400, model, rand.New(rand.NewSource(8)))
	csvData := dataset.BiddingCSV(recs)

	policy := privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
		privacy.Public: 1 << 10, privacy.Low: 1 << 10, privacy.Moderate: 512, privacy.High: 256,
	}}
	fleet, _ := provider.NewFleet(
		provider.MustNew(provider.Info{Name: "Titans", PL: privacy.High, CL: 1}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "Spartans", PL: privacy.High, CL: 1}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "Yagamis", PL: privacy.High, CL: 1}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "Olympus", PL: privacy.High, CL: 1}, provider.Options{}),
	)
	d, err := core.New(core.Config{Fleet: fleet, ChunkPolicy: policy, StripeWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.RegisterClient("hercules")
	_ = d.AddPassword("hercules", "pw", privacy.High)
	if _, err := d.Upload("hercules", "pw", "bids.csv", csvData, privacy.Moderate, core.UploadOptions{}); err != nil {
		t.Fatal(err)
	}

	truth := &mining.RegressionModel{Coeffs: []float64{model.A, model.B, model.C}, Intercept: model.D}
	perProv := PerProviderBiddingModels(mustDumpAll(t, fleet))
	if len(perProv) == 0 {
		t.Fatal("no providers saw data")
	}
	worst := 0.0
	var models []*mining.RegressionModel
	for name, r := range perProv {
		if r.FitErr != nil {
			// Mining failure is the defence succeeding outright.
			continue
		}
		relErr, err := mining.RelativeCoefficientError(r.Model, truth)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: rows=%d model=%v relErr=%.3f", name, r.RowsRecovered, r.Model, relErr)
		if relErr > worst {
			worst = relErr
		}
		models = append(models, r.Model)
	}
	if len(models) >= 2 {
		// Models from different insiders must disagree.
		d01, _ := mining.CoefficientDistance(models[0], models[1])
		if d01 < 1 {
			t.Fatalf("per-provider models nearly identical (distance %v) — fragmentation had no effect", d01)
		}
	}
	if worst < 0.05 && len(models) > 0 {
		t.Fatalf("every fragment model within 5%% of truth — fragmentation had no effect")
	}
}

func mustDumpAll(t *testing.T, fleet *provider.Fleet) []Blob {
	t.Helper()
	all := make([]int, fleet.Len())
	for i := range all {
		all[i] = i
	}
	blobs, err := DumpProviders(fleet, all)
	if err != nil {
		t.Fatal(err)
	}
	return blobs
}

func TestGPSClusteringAttackFullVsFragment(t *testing.T) {
	cfg := dataset.DefaultGPSConfig()
	profiles, points, err := dataset.GenerateGPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := dataset.GPSCSV(points)

	// Full data on one provider.
	fleet1, _ := provider.NewFleet(provider.MustNew(provider.Info{Name: "Solo", PL: privacy.High, CL: 0}, provider.Options{}))
	d1, _ := core.New(core.Config{Fleet: fleet1, StripeWidth: 1})
	_ = d1.RegisterClient("v")
	_ = d1.AddPassword("v", "pw", privacy.High)
	if _, err := d1.Upload("v", "pw", "gps.csv", full, privacy.Public, core.UploadOptions{NoParity: true}); err != nil {
		t.Fatal(err)
	}
	fullRes, err := GPSClusteringAttack(mustDumpAll(t, fleet1), cfg.Groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullRes.UserIDs) != cfg.Users {
		t.Fatalf("full attack sees %d users", len(fullRes.UserIDs))
	}
	// Full-data clustering should align with the planted groups.
	truthLabels := make([]int, len(fullRes.UserIDs))
	for i, id := range fullRes.UserIDs {
		truthLabels[i] = profiles[id].Group
	}
	ariFull, err := metrics.AdjustedRandIndex(fullRes.Labels, truthLabels)
	if err != nil {
		t.Fatal(err)
	}
	if ariFull < 0.5 {
		t.Fatalf("full-data clustering ARI = %v, expected strong recovery", ariFull)
	}

	// Fragmented: 6 providers, small chunks; a single insider mines one.
	policy := privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
		privacy.Public: 4 << 10, privacy.Low: 4 << 10, privacy.Moderate: 2 << 10, privacy.High: 1 << 10,
	}}
	fleet2, _ := provider.NewFleet(
		provider.MustNew(provider.Info{Name: "F0", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "F1", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "F2", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "F3", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "F4", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "F5", PL: privacy.High, CL: 0}, provider.Options{}),
	)
	d2, _ := core.New(core.Config{Fleet: fleet2, ChunkPolicy: policy, StripeWidth: 4})
	_ = d2.RegisterClient("v")
	_ = d2.AddPassword("v", "pw", privacy.High)
	if _, err := d2.Upload("v", "pw", "gps.csv", full, privacy.High, core.UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	oneProv, err := DumpProviders(fleet2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	fragRes, err := GPSClusteringAttack(oneProv, cfg.Groups)
	if err != nil {
		// Total mining failure is an acceptable (strong) outcome.
		t.Logf("fragment attack failed outright: %v", err)
		return
	}
	if fragRes.PointsRecovered >= fullRes.PointsRecovered {
		t.Fatalf("insider recovered %d points ≥ full %d", fragRes.PointsRecovered, fullRes.PointsRecovered)
	}
	// Quantify the paper's "entities moved between clusters": agreement of
	// the fragment clustering with truth must be lower than full data's.
	truthFrag := make([]int, len(fragRes.UserIDs))
	for i, id := range fragRes.UserIDs {
		truthFrag[i] = profiles[id].Group
	}
	ariFrag, err := metrics.AdjustedRandIndex(fragRes.Labels, truthFrag)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ARI full=%.3f fragment=%.3f points full=%d fragment=%d",
		ariFull, ariFrag, fullRes.PointsRecovered, fragRes.PointsRecovered)
	if ariFrag >= ariFull {
		t.Fatalf("fragment clustering (ARI %v) as good as full data (ARI %v)", ariFrag, ariFull)
	}
}

func TestBasketRuleAttack(t *testing.T) {
	cfg := dataset.DefaultBasketConfig()
	cfg.Transactions = 800
	txns, err := dataset.GenerateBaskets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize as lines.
	var body []byte
	for _, txn := range txns {
		for i, it := range txn {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, it...)
		}
		body = append(body, '\n')
	}
	blobs := []Blob{{Provider: "solo", Key: "k", Data: body}}
	res := BasketRuleAttack(blobs, 0.05, 0.7)
	if res.FitErr != nil {
		t.Fatal(res.FitErr)
	}
	names := cfg.PlantedRuleNames()
	if !HasRule(res.Rules, names[0][0], names[0][1]) {
		t.Fatalf("planted rule not recovered from whole data: %d rules", len(res.Rules))
	}
	if res.TxnsRecovered != 800 {
		t.Fatalf("txns = %d", res.TxnsRecovered)
	}
	// Empty input fails cleanly.
	empty := BasketRuleAttack(nil, 0.05, 0.7)
	if !errors.Is(empty.FitErr, mining.ErrTooFewSamples) {
		t.Fatalf("empty attack err = %v", empty.FitErr)
	}
}

func TestBiddingAttackOnGarbage(t *testing.T) {
	blobs := []Blob{{Provider: "p", Key: "k", Data: []byte{0x00, 0xFF, 0x13, 0x37}}}
	res := BiddingRegressionAttack(blobs)
	if res.FitErr == nil {
		t.Fatal("attack on parity garbage should fail")
	}
	if !errors.Is(res.FitErr, mining.ErrTooFewSamples) {
		t.Fatalf("err = %v", res.FitErr)
	}
}

func TestGPSAttackOnEmpty(t *testing.T) {
	if _, err := GPSClusteringAttack(nil, 3); err == nil {
		t.Fatal("empty attack should fail")
	}
}

func TestParseBasketLines(t *testing.T) {
	txns := parseBasketLines([]byte("a,b\nc\n\n,x,\nno-newline-tail"))
	if len(txns) != 4 {
		t.Fatalf("txns = %v", txns)
	}
	if len(txns[0]) != 2 || txns[0][0] != "a" {
		t.Fatalf("txn0 = %v", txns[0])
	}
	if len(txns[2]) != 1 || txns[2][0] != "x" {
		t.Fatalf("txn2 = %v", txns[2])
	}
	if txns[3][0] != "no-newline-tail" {
		t.Fatalf("txn3 = %v", txns[3])
	}
}

func TestMisleadingDataCorruptsAttack(t *testing.T) {
	// With misleading decoy records injected, an attacker who cannot strip
	// them fits a worse model than without decoys.
	model := dataset.PaperBiddingModel()
	model.Noise = 0
	recs := dataset.GenerateBiddingHistory(200, model, rand.New(rand.NewSource(12)))
	csvData := dataset.BiddingCSV(recs)
	truth := &mining.RegressionModel{Coeffs: []float64{model.A, model.B, model.C}, Intercept: model.D}

	// Decoys: rows with the same schema but a different pricing rule.
	decoyModel := dataset.BiddingModel{A: -2, B: 9, C: 0.2, D: 100, Noise: 0}
	decoyRecs := dataset.GenerateBiddingHistory(60, decoyModel, rand.New(rand.NewSource(13)))
	decoyCSV := dataset.BiddingCSV(decoyRecs)
	var decoyLines [][]byte
	start := 0
	for i, b := range decoyCSV {
		if b == '\n' {
			line := decoyCSV[start:i]
			if len(line) > 0 && line[0] != 'y' { // skip header
				decoyLines = append(decoyLines, line)
			}
			start = i + 1
		}
	}

	run := func(opts core.UploadOptions) BiddingResult {
		fleet, _ := provider.NewFleet(provider.MustNew(provider.Info{Name: "T", PL: privacy.High, CL: 0}, provider.Options{}))
		d, _ := core.New(core.Config{Fleet: fleet, StripeWidth: 1})
		_ = d.RegisterClient("v")
		_ = d.AddPassword("v", "pw", privacy.High)
		if _, err := d.Upload("v", "pw", "bids.csv", csvData, privacy.Public, opts); err != nil {
			t.Fatal(err)
		}
		return BiddingRegressionAttack(mustDumpAll(t, fleet))
	}

	clean := run(core.UploadOptions{NoParity: true})
	poisoned := run(core.UploadOptions{NoParity: true, MisleadLines: decoyLines})
	if clean.FitErr != nil {
		t.Fatal(clean.FitErr)
	}
	if poisoned.FitErr != nil {
		return // decoys broke mining entirely: defence succeeded
	}
	cleanErr, _ := mining.RelativeCoefficientError(clean.Model, truth)
	poisErr, _ := mining.RelativeCoefficientError(poisoned.Model, truth)
	t.Logf("clean relErr=%.4f poisoned relErr=%.4f", cleanErr, poisErr)
	if !(poisErr > cleanErr) {
		t.Fatalf("decoys did not degrade the attack: clean %v vs poisoned %v", cleanErr, poisErr)
	}
	if math.IsNaN(poisErr) {
		t.Fatal("NaN error")
	}
}

func TestHealthPredictionAttackFullVsFragment(t *testing.T) {
	cfg := dataset.DefaultHealthConfig()
	recs, err := dataset.GenerateHealthRecords(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split := len(recs) * 3 / 4
	train, holdout := recs[:split], recs[split:]
	body := dataset.HealthCSV(train)

	// Whole data on one provider.
	solo, _ := provider.NewFleet(provider.MustNew(provider.Info{Name: "S", PL: privacy.High, CL: 0}, provider.Options{}))
	d1, _ := core.New(core.Config{Fleet: solo, StripeWidth: 1})
	_ = d1.RegisterClient("h")
	_ = d1.AddPassword("h", "pw", privacy.High)
	if _, err := d1.Upload("h", "pw", "p.csv", body, privacy.Public, core.UploadOptions{NoParity: true}); err != nil {
		t.Fatal(err)
	}
	fullRes := HealthPredictionAttack(mustDumpAll(t, solo), holdout)
	if fullRes.FitErr != nil {
		t.Fatalf("full attack failed: %v", fullRes.FitErr)
	}
	// The cohort's class distributions overlap by design, so the ceiling
	// is well below 1.0; the whole-data attacker must still clearly beat
	// the majority-class baseline (~0.57 at the default config).
	if fullRes.Accuracy < 0.70 {
		t.Fatalf("full-data accuracy = %v, want a usable predictor", fullRes.Accuracy)
	}

	// Fragmented across 5 providers; a single insider trains on less.
	policy := privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
		privacy.Public: 1 << 10, privacy.Low: 1 << 10, privacy.Moderate: 512, privacy.High: 512,
	}}
	fleet, _ := provider.NewFleet(
		provider.MustNew(provider.Info{Name: "A", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "B", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "C", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "D", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "E", PL: privacy.High, CL: 0}, provider.Options{}),
	)
	d2, _ := core.New(core.Config{Fleet: fleet, ChunkPolicy: policy, StripeWidth: 5})
	_ = d2.RegisterClient("h")
	_ = d2.AddPassword("h", "pw", privacy.High)
	if _, err := d2.Upload("h", "pw", "p.csv", body, privacy.High, core.UploadOptions{NoParity: true}); err != nil {
		t.Fatal(err)
	}
	oneBlob, err := DumpProviders(fleet, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	fragRes := HealthPredictionAttack(oneBlob, holdout)
	if fragRes.FitErr == nil && fragRes.RowsRecovered >= fullRes.RowsRecovered {
		t.Fatalf("insider sees %d rows >= full %d", fragRes.RowsRecovered, fullRes.RowsRecovered)
	}
	t.Logf("full: rows=%d acc=%.3f; insider: rows=%d acc=%.3f err=%v",
		fullRes.RowsRecovered, fullRes.Accuracy, fragRes.RowsRecovered, fragRes.Accuracy, fragRes.FitErr)
}

func TestHealthPredictionAttackEmpty(t *testing.T) {
	recs, _ := dataset.GenerateHealthRecords(dataset.DefaultHealthConfig())
	res := HealthPredictionAttack(nil, recs[:10])
	if res.FitErr == nil {
		t.Fatal("empty attack should fail")
	}
}
