package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/raid"
)

// TestTable4ShapeMatchesPaper is the headline reproduction check: the
// full-data fit is close to the paper's (1.4, 1.5, 3.1, 5436) while the
// three fragment fits diverge from it and from each other.
func TestTable4ShapeMatchesPaper(t *testing.T) {
	r, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	paper := []float64{1.4, 1.5, 3.1}
	for i, want := range paper {
		if math.Abs(r.FullModel.Coeffs[i]-want) > 0.4 {
			t.Fatalf("full coeff[%d] = %v, paper %v", i, r.FullModel.Coeffs[i], want)
		}
	}
	if math.Abs(r.FullModel.Intercept-5436) > 900 {
		t.Fatalf("full intercept = %v, paper 5436", r.FullModel.Intercept)
	}
	if len(r.FragmentModels) != 3 {
		t.Fatalf("fragments = %d, want 3", len(r.FragmentModels))
	}
	// The paper's misleading per-provider equations: e.g. (1.8, 0.8, 3.4)
	// + 4489 — every fragment model differs substantially from the full
	// fit.
	divergent := 0
	for i, e := range r.FragmentErrs {
		t.Logf("fragment %d: %v (relErr %.3f)", i+1, r.FragmentModels[i], e)
		if e > 0.1 {
			divergent++
		}
	}
	if divergent < 2 {
		t.Fatalf("only %d/3 fragment models diverge from the full fit", divergent)
	}
	if r.PairwiseDist < 100 {
		t.Fatalf("fragment models nearly agree (mean distance %v)", r.PairwiseDist)
	}
	out := FormatTable4(r)
	for _, want := range []string{"Table IV", "Greece", "2011", "Full data", "provider 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTable4SystemEndToEnd(t *testing.T) {
	r, err := Table4System(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Full.FitErr != nil {
		t.Fatalf("single-provider attack failed: %v", r.Full.FitErr)
	}
	if r.TruthErrFull > 0.2 {
		t.Fatalf("single-provider insider should recover the model (err %.3f)", r.TruthErrFull)
	}
	if len(r.PerProvider) != 3 {
		t.Fatalf("per-provider results = %d", len(r.PerProvider))
	}
	// The distributed insiders do strictly worse than the single-provider
	// insider.
	if r.TruthErrFragMax <= r.TruthErrFull {
		t.Fatalf("fragmented attack (worst %.3f) not worse than whole-data (%.3f)",
			r.TruthErrFragMax, r.TruthErrFull)
	}
	for name, pr := range r.PerProvider {
		if pr.RowsRecovered >= r.Full.RowsRecovered {
			t.Fatalf("insider %s sees %d rows ≥ whole-data %d", name, pr.RowsRecovered, r.Full.RowsRecovered)
		}
	}
}

// Two runs of the same experiment print the same text, and the
// per-insider lines follow provider names. Each result is formatted
// several times: ranging over the map instead would put the three names
// in name order only about one time in three.
func TestFormatTable4SystemIsStable(t *testing.T) {
	var outs []string
	for run := 0; run < 2; run++ {
		r, err := Table4System(300, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			outs = append(outs, FormatTable4System(r))
		}
	}
	for _, out := range outs {
		if out != outs[0] {
			t.Fatalf("two formats differ:\n%s\n---\n%s", outs[0], out)
		}
	}
	at := -1
	for _, name := range []string{"Spartans", "Titans", "Yagamis"} {
		i := strings.Index(outs[0], "  "+name+" ")
		if i <= at {
			t.Fatalf("insider %s out of name order:\n%s", name, outs[0])
		}
		at = i
	}
}

func TestGPSFiguresShapeMatchesPaper(t *testing.T) {
	cfg := dataset.DefaultGPSConfig()
	r, err := GPSFigures(cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4 uses >3000 observations; Figs. 5–6 use 500 each.
	if r.Full.Observations <= 3000 {
		t.Fatalf("full observations = %d, paper uses >3000", r.Full.Observations)
	}
	if len(r.Fragments) != 2 {
		t.Fatalf("fragments = %d", len(r.Fragments))
	}
	for i, f := range r.Fragments {
		if f.Observations != 500 {
			t.Fatalf("fragment %d observations = %d, want 500", i, f.Observations)
		}
	}
	// Full-data clustering recovers the planted groups well...
	if r.TruthARI[0] < 0.5 {
		t.Fatalf("full-data ARI = %.3f, want strong recovery", r.TruthARI[0])
	}
	// ...and each fragment's clustering disagrees with the full one: the
	// paper's "many entities have moved from their original cluster".
	for i := range r.Fragments {
		if r.FullARI[i] > 0.95 {
			t.Fatalf("fragment %d ARI vs full = %.3f — no entities moved", i+1, r.FullARI[i])
		}
		if r.Migrations[i] == 0 {
			t.Fatalf("fragment %d: zero changed pairs", i+1)
		}
		if r.MigratedUsers[i] == 0 {
			t.Fatalf("fragment %d: zero migrated users", i+1)
		}
	}
	out := FormatGPSFigures(r)
	for _, want := range []string{"Fig. 4", "Fig. 5", "Fig. 6", "migrated users", "leaf order"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q", want)
		}
	}
	ascii := GPSDendrogramASCII(&r.Full)
	if !strings.Contains(ascii, "user01") {
		t.Fatalf("dendrogram ASCII missing labels:\n%.200s", ascii)
	}
}

func TestGPSFiguresValidation(t *testing.T) {
	cfg := dataset.DefaultGPSConfig()
	if _, err := GPSFigures(cfg, 0); err == nil {
		t.Fatal("fragmentObs=0 accepted")
	}
	if _, err := GPSFigures(cfg, 10_000); err == nil {
		t.Fatal("oversized fragment accepted")
	}
}

func TestDistributionTime(t *testing.T) {
	r, err := DistributionTime(200_000, 6, raid.RAID5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ReadBackOK {
		t.Fatal("consistency check failed")
	}
	if r.Chunks < 2 || r.Parity < 1 {
		t.Fatalf("chunks=%d parity=%d", r.Chunks, r.Parity)
	}
	if r.WallTime <= 0 {
		t.Fatal("no wall time measured")
	}
}

func TestDistributionSweep(t *testing.T) {
	rows, err := DistributionSweep([]int{50_000, 100_000}, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.ReadBackOK {
			t.Fatalf("readback failed: %+v", r)
		}
	}
	if !strings.Contains(FormatDistributionSweep(rows), "providers") {
		t.Fatal("sweep rendering broken")
	}
}

func TestMultiDistributorDrill(t *testing.T) {
	r, err := MultiDistributor(3, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.UploadOK || !r.PrimaryRetrievalOK {
		t.Fatalf("healthy-path failure: %+v", r)
	}
	if !r.FailoverRetrievalOK {
		t.Fatal("secondary failed to serve retrieval during primary outage")
	}
	if !r.UploadBlockedOK {
		t.Fatal("a secondary accepted an upload")
	}
}

func TestFigure3Report(t *testing.T) {
	out, err := Figure3Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table I", "Table II", "Table III",
		"Earth", "Bob", "10986",
		"chunk served", "request denied",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "UNEXPECTED") {
		t.Fatalf("walkthrough deviated:\n%s", out)
	}
}

func TestAblationChunkSize(t *testing.T) {
	points, err := AblationChunkSize([]int{8 << 10, 1 << 10, 256}, 300, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Rows seen by the best insider shrink as chunks shrink.
	if points[2].RowsRecovered >= points[0].RowsRecovered {
		t.Fatalf("rows did not shrink with chunk size: %+v", points)
	}
	if !strings.Contains(FormatChunkSizeAblation(points), "chunk bytes") {
		t.Fatal("rendering broken")
	}
}

func TestAblationMislead(t *testing.T) {
	points, err := AblationMislead([]int{0, 40, 160}, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].MiningFailed {
		t.Fatal("attack failed with zero decoys")
	}
	if points[0].ReadOverhead > 0.01 {
		t.Fatalf("overhead with zero decoys = %v", points[0].ReadOverhead)
	}
	// More decoys → worse model (or failure) and more overhead.
	last := points[len(points)-1]
	if !last.MiningFailed && last.RelErr <= points[0].RelErr {
		t.Fatalf("decoys did not hurt the attack: %+v", points)
	}
	if last.ReadOverhead <= points[0].ReadOverhead {
		t.Fatalf("overhead did not grow: %+v", points)
	}
	if !strings.Contains(FormatMisleadAblation(points), "decoys") {
		t.Fatal("rendering broken")
	}
}

func TestAblationRAID(t *testing.T) {
	points, err := AblationRAID(3, 0.1, 1, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Availability ordering and the storage cost of parity.
	if !(points[2].AnalyticAvail > points[1].AnalyticAvail && points[1].AnalyticAvail > points[0].AnalyticAvail) {
		t.Fatalf("availability ordering wrong: %+v", points)
	}
	if points[0].StorageFactor != 1 || points[1].StorageFactor <= 1 || points[2].StorageFactor <= points[1].StorageFactor {
		t.Fatalf("storage factors wrong: %+v", points)
	}
	// With one provider down, RAID5/6 drills read everything.
	if points[1].DrillReadable != points[1].DrillTotal || points[2].DrillReadable != points[2].DrillTotal {
		t.Fatalf("raid drills lost files: %+v", points)
	}
	if !strings.Contains(FormatRaidAblation(points), "P(survive)") {
		t.Fatal("rendering broken")
	}
}

func TestAblationCompromise(t *testing.T) {
	points, err := AblationCompromise(5, 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	// Recovered rows grow with the number of compromised providers, and
	// the full compromise sees the most.
	if points[4].RowsRecovered <= points[0].RowsRecovered {
		t.Fatalf("row recovery not increasing: %+v", points)
	}
	// Full compromise should mine successfully (relErr bounded by the
	// planted noise — intercept SE dominates since covariates sit far
	// from the origin).
	if points[4].MiningFailed || points[4].RelErr > 0.5 {
		t.Fatalf("full compromise failed to mine: %+v", points[4])
	}
	if points[4].RowsRecovered < 250 {
		t.Fatalf("full compromise recovered only %d/300 rows", points[4].RowsRecovered)
	}
	if !strings.Contains(FormatCompromise(points), "compromised") {
		t.Fatal("rendering broken")
	}
}

func TestEncryptionVsFragmentation(t *testing.T) {
	points, err := EncryptionVsFragmentation([]int{1 << 20, 8 << 20}, 64<<10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Speedup <= 1 {
			t.Fatalf("fragmentation not cheaper: %+v", p)
		}
		if p.FragChunksTouched > 2 {
			t.Fatalf("point query touched %d chunks", p.FragChunksTouched)
		}
	}
	// Speedup grows with object size (encryption cost scales with the
	// whole object).
	if points[1].Speedup <= points[0].Speedup {
		t.Fatalf("speedup not growing: %+v", points)
	}
	if _, err := EncryptionVsFragmentation([]int{100}, 64, 4096); err == nil {
		t.Fatal("query > object accepted")
	}
	if !strings.Contains(FormatEncVsFrag(points), "speedup") {
		t.Fatal("rendering broken")
	}
}

func TestBasketRuleExperiment(t *testing.T) {
	cfg := dataset.DefaultBasketConfig()
	cfg.Transactions = 600
	points, err := BasketRuleExperiment(cfg, 4, 0.05, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 { // full + 4 insiders
		t.Fatalf("points = %d", len(points))
	}
	full := points[0]
	if full.Scope != "full" || full.PlantedFound != len(cfg.PlantedRules) {
		t.Fatalf("full attack failed to recover planted rules: %+v", full)
	}
	// Every insider sees strictly fewer transactions than the whole log.
	for _, p := range points[1:] {
		if p.TxnsRecovered >= full.TxnsRecovered {
			t.Fatalf("insider %s sees %d txns >= full %d", p.Scope, p.TxnsRecovered, full.TxnsRecovered)
		}
	}
	if !strings.Contains(FormatBasketExperiment(points), "planted found") {
		t.Fatal("rendering broken")
	}
}

func TestEncryptionVsFragmentationLive(t *testing.T) {
	points, err := EncryptionVsFragmentationLive([]int{256 << 10, 1 << 20}, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if !p.BothCorrect {
			t.Fatalf("wrong query answer: %+v", p)
		}
		if p.Speedup <= 1 {
			t.Fatalf("fragmentation not measurably cheaper: %+v", p)
		}
		if p.EncBytesMoved < int64(p.ObjectBytes) {
			t.Fatalf("encrypted baseline moved %d < object %d", p.EncBytesMoved, p.ObjectBytes)
		}
	}
	if points[1].Speedup <= points[0].Speedup {
		t.Fatalf("speedup should grow with object size: %+v", points)
	}
	if !strings.Contains(FormatEncVsFragLive(points), "speedup") {
		t.Fatal("rendering broken")
	}
	if _, err := EncryptionVsFragmentationLive([]int{10}, 100, 1); err == nil {
		t.Fatal("query > object accepted")
	}
}

func TestHealthPredictionExperiment(t *testing.T) {
	cfg := dataset.DefaultHealthConfig()
	points, baseline, err := HealthPredictionExperiment(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	full := points[0]
	if full.Failed {
		t.Fatal("whole-data prediction attack failed")
	}
	// The whole-data attacker beats the majority baseline clearly.
	if full.Accuracy < baseline+0.1 {
		t.Fatalf("full accuracy %.3f barely beats baseline %.3f", full.Accuracy, baseline)
	}
	// Insiders see strictly fewer rows.
	for _, p := range points[1:] {
		if p.RowsRecovered >= full.RowsRecovered {
			t.Fatalf("insider %s sees %d rows >= full %d", p.Scope, p.RowsRecovered, full.RowsRecovered)
		}
	}
	if !strings.Contains(FormatHealthExperiment(points, baseline), "baseline") {
		t.Fatal("rendering broken")
	}
}

func TestCostTradeoff(t *testing.T) {
	r, err := CostTradeoff(3, 128<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.SensitiveOnTrusted != 1.0 {
		t.Fatalf("sensitive chunks off trusted providers: %v", r.SensitiveOnTrusted)
	}
	if r.StoredBytes <= r.LogicalBytes {
		t.Fatalf("parity overhead missing: stored %d <= logical %d", r.StoredBytes, r.LogicalBytes)
	}
	if r.Ratio >= 1 {
		t.Fatalf("distributed (%v) not cheaper than premium single (%v) despite cheap providers", r.DistributedBill, r.SingleBill)
	}
	if !strings.Contains(FormatCost(r), "distributed bill") {
		t.Fatal("rendering broken")
	}
}
