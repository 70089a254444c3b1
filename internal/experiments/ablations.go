package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cryptofrag"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// ChunkSizePoint is one row of the chunk-size ablation (§VII-C "Reducing
// Chunk Size"): smaller chunks → fewer parseable rows per insider → worse
// attacker model.
type ChunkSizePoint struct {
	ChunkBytes    int
	RowsRecovered int // by the single insider with the most data
	RelErr        float64
	MiningFailed  bool
}

// AblationChunkSize sweeps chunk sizes for a fixed bidding history spread
// over nProviders and reports the best-positioned insider's attack
// quality at each size.
func AblationChunkSize(chunkSizes []int, nRows, nProviders int, seed int64) ([]ChunkSizePoint, error) {
	csvData, truth := biddingHistory(nRows, dataset.PaperBiddingModel(), seed)
	var out []ChunkSizePoint
	for _, cs := range chunkSizes {
		fleet, err := BuildFleet(nProviders)
		if err != nil {
			return nil, err
		}
		policy := privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
			privacy.Public: cs, privacy.Low: cs, privacy.Moderate: cs, privacy.High: cs,
		}}
		l, err := runLab(fleet, core.Config{ChunkPolicy: policy, StripeWidth: nProviders - 1}, "victim", "bids.csv", csvData, privacy.Moderate, core.UploadOptions{NoParity: true})
		if err != nil {
			return nil, err
		}
		_, blobs, err := l.insiders()
		if err != nil {
			return nil, err
		}
		point := ChunkSizePoint{ChunkBytes: cs, MiningFailed: true}
		for _, r := range attack.PerProviderBiddingModels(blobs) {
			point.RowsRecovered = max(point.RowsRecovered, r.RowsRecovered)
			e, failed, err := fitError(r, truth)
			if err != nil {
				return nil, err
			}
			if !failed && (point.MiningFailed || e < point.RelErr) {
				point.RelErr, point.MiningFailed = e, false // best (most dangerous) insider
			}
		}
		out = append(out, point)
	}
	return out, nil
}

// FormatChunkSizeAblation renders the sweep.
func FormatChunkSizeAblation(points []ChunkSizePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %14s %12s %8s\n", "chunk bytes", "rows@insider", "best relErr", "failed")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %14d %12s %8v\n", p.ChunkBytes, p.RowsRecovered, scoreCell(p.RelErr, p.MiningFailed), p.MiningFailed)
	}
	return b.String()
}

// MisleadPoint is one row of the misleading-data ablation (§VII-D).
type MisleadPoint struct {
	DecoyRows    int
	RelErr       float64
	ReadOverhead float64 // extra stored bytes / original bytes
	MiningFailed bool
}

// AblationMislead sweeps the number of injected decoy records and reports
// the attacker's model error plus the storage/read overhead the paper
// warns about ("it has some overhead associated with retrieving data").
func AblationMislead(decoyCounts []int, nRows int, seed int64) ([]MisleadPoint, error) {
	model := dataset.PaperBiddingModel()
	model.Noise = 0
	csvData, truth := biddingHistory(nRows, model, seed)

	decoyModel := dataset.BiddingModel{A: -3, B: 8, C: 0.1, D: 777, Noise: 0}
	var out []MisleadPoint
	for _, n := range decoyCounts {
		decoys := dataset.GenerateBiddingHistory(n, decoyModel, rand.New(rand.NewSource(seed+int64(n)+1)))
		var decoyLines [][]byte
		for _, line := range strings.Split(string(dataset.BiddingCSV(decoys)), "\n") {
			if line == "" || strings.HasPrefix(line, "year,") {
				continue
			}
			decoyLines = append(decoyLines, []byte(line))
		}
		fleet, err := BuildFleet(1)
		if err != nil {
			return nil, err
		}
		opts := core.UploadOptions{NoParity: true}
		if n > 0 {
			opts.MisleadLines = decoyLines
		}
		l, err := runLab(fleet, core.Config{StripeWidth: 1, MisleadSeed: seed}, "victim", "bids.csv", csvData, privacy.Public, opts)
		if err != nil {
			return nil, err
		}
		_, blobs, err := l.insiders()
		if err != nil {
			return nil, err
		}
		stored := 0
		for _, b := range blobs {
			stored += len(b.Data)
		}
		point := MisleadPoint{
			DecoyRows:    n,
			ReadOverhead: float64(stored-len(csvData)) / float64(len(csvData)),
		}
		if point.RelErr, point.MiningFailed, err = fitError(attack.BiddingRegressionAttack(blobs), truth); err != nil {
			return nil, err
		}
		out = append(out, point)
	}
	return out, nil
}

// FormatMisleadAblation renders the sweep.
func FormatMisleadAblation(points []MisleadPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %12s %14s %8s\n", "decoys", "relErr", "readOverhead", "failed")
	for _, p := range points {
		fmt.Fprintf(&b, "%10d %12s %14.3f %8v\n", p.DecoyRows, scoreCell(p.RelErr, p.MiningFailed), p.ReadOverhead, p.MiningFailed)
	}
	return b.String()
}

// RaidPoint is one row of the RAID ablation: analytic survival plus an
// end-to-end outage drill.
type RaidPoint struct {
	Level         raid.Level
	FailureProb   float64
	AnalyticAvail float64
	DrillDown     int
	DrillReadable int
	DrillTotal    int
	StorageFactor float64
}

// AblationRAID compares None/RAID5/RAID6 at a given stripe width: analytic
// availability at failure probability p and a live drill with `down`
// providers out.
func AblationRAID(width int, p float64, down, nProviders int, seed int64) ([]RaidPoint, error) {
	var out []RaidPoint
	for _, lvl := range []raid.Level{raid.None, raid.RAID5, raid.RAID6} {
		avail, err := StripeSurvival(width, lvl, p)
		if err != nil {
			return nil, err
		}
		fleet, err := BuildFleet(nProviders)
		if err != nil {
			return nil, err
		}
		l, err := newLab(fleet, core.Config{StripeWidth: width, DefaultRaid: raid.RAID5}, "c")
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		var files []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("f%d", i)
			opts := core.UploadOptions{Assurance: lvl}
			if lvl == raid.None {
				opts = core.UploadOptions{NoParity: true}
			}
			if _, err := l.store(name, dataset.RandomBytes(48_000, rng), privacy.Moderate, opts); err != nil {
				return nil, err
			}
			files = append(files, name)
		}
		drill, err := OutageDrill(l.d, fleet, l.client, labPassword, files, down, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, RaidPoint{
			Level: lvl, FailureProb: p, AnalyticAvail: avail,
			DrillDown: down, DrillReadable: drill.FilesReadable, DrillTotal: drill.FilesTotal,
			StorageFactor: float64(width+lvl.ParityShards()) / float64(width),
		})
	}
	return out, nil
}

// FormatRaidAblation renders the comparison.
func FormatRaidAblation(points []RaidPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %8s %14s %18s %14s\n", "raid", "p(fail)", "P(survive)", "drill readable", "storage x")
	for _, pt := range points {
		fmt.Fprintf(&b, "%7s %8.2f %14.4f %11d/%d (%d down) %9.2f\n",
			pt.Level, pt.FailureProb, pt.AnalyticAvail, pt.DrillReadable, pt.DrillTotal, pt.DrillDown, pt.StorageFactor)
	}
	return b.String()
}

// CompromisePoint is one row of the outside-attacker sweep: mining success
// versus the number of compromised providers.
type CompromisePoint struct {
	Compromised   int
	RowsRecovered int
	RelErr        float64
	MiningFailed  bool
}

// AblationCompromise uploads a bidding history across nProviders and
// sweeps how many providers the outside attacker controls.
func AblationCompromise(nProviders, nRows int, seed int64) ([]CompromisePoint, error) {
	csvData, truth := biddingHistory(nRows, dataset.PaperBiddingModel(), seed)
	fleet, err := BuildFleet(nProviders)
	if err != nil {
		return nil, err
	}
	policy := privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
		privacy.Public: 1 << 10, privacy.Low: 1 << 10, privacy.Moderate: 1 << 10, privacy.High: 512,
	}}
	if _, err := runLab(fleet, core.Config{ChunkPolicy: policy, StripeWidth: nProviders - 1}, "victim", "bids.csv", csvData, privacy.Moderate, core.UploadOptions{NoParity: true}); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed + 99))
	var out []CompromisePoint
	for k := 1; k <= nProviders; k++ {
		_, blobs, err := attack.CompromiseRandom(fleet, k, rng)
		if err != nil {
			return nil, err
		}
		res := attack.BiddingRegressionAttack(blobs)
		point := CompromisePoint{Compromised: k, RowsRecovered: res.RowsRecovered}
		if point.RelErr, point.MiningFailed, err = fitError(res, truth); err != nil {
			return nil, err
		}
		out = append(out, point)
	}
	return out, nil
}

// FormatCompromise renders the sweep.
func FormatCompromise(points []CompromisePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %14s %12s %8s\n", "compromised", "rows", "relErr", "failed")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %14d %12s %8v\n", p.Compromised, p.RowsRecovered, scoreCell(p.RelErr, p.MiningFailed), p.MiningFailed)
	}
	return b.String()
}

// EncVsFragPoint is one row of the §VII-E comparison.
type EncVsFragPoint struct {
	ObjectBytes       int
	QueryBytes        int
	EncTransferred    int
	EncDecrypted      int
	FragTransferred   int
	FragChunksTouched int
	Speedup           float64
}

// EncryptionVsFragmentation sweeps object sizes for a fixed point query,
// reproducing the paper's overhead argument quantitatively.
func EncryptionVsFragmentation(objectSizes []int, chunkSize, queryBytes int) ([]EncVsFragPoint, error) {
	var out []EncVsFragPoint
	for _, sz := range objectSizes {
		if queryBytes > sz {
			return nil, fmt.Errorf("experiments: query %d larger than object %d", queryBytes, sz)
		}
		enc := cryptofrag.EncryptedQueryCost(sz, queryBytes)
		frag, err := cryptofrag.FragmentedQueryCost(sz, chunkSize, sz/2, queryBytes)
		if err != nil {
			return nil, err
		}
		speedup := 0.0
		if frag.BytesTransferred > 0 {
			speedup = float64(enc.BytesTransferred) / float64(frag.BytesTransferred)
		}
		out = append(out, EncVsFragPoint{
			ObjectBytes: sz, QueryBytes: queryBytes,
			EncTransferred: enc.BytesTransferred, EncDecrypted: enc.BytesDecrypted,
			FragTransferred: frag.BytesTransferred, FragChunksTouched: frag.ChunksTouched,
			Speedup: speedup,
		})
	}
	return out, nil
}

// FormatEncVsFrag renders the comparison.
func FormatEncVsFrag(points []EncVsFragPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %10s %14s %14s %10s\n", "object", "query", "enc bytes", "frag bytes", "speedup")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %10d %14d %14d %9.1fx\n",
			p.ObjectBytes, p.QueryBytes, p.EncTransferred, p.FragTransferred, p.Speedup)
	}
	return b.String()
}
