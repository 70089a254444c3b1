package experiments

// This file quantifies the availability half of the paper's pitch: "the
// proposed system ensures greater availability of data". It models
// provider outages (the EC2 April-2011 incident the paper opens with) as
// independent failures and measures, analytically and by Monte Carlo,
// whether striped data survives — per RAID level, stripe width and
// failure probability — plus end-to-end outage drills against a live
// distributor.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/provider"
	"repro/internal/raid"
)

// StripeSurvival returns the analytic probability that a stripe of
// dataShards+parity shards on distinct providers, each independently down
// with probability p, remains fully readable (lost shards ≤ parity).
func StripeSurvival(dataShards int, level raid.Level, p float64) (float64, error) {
	if dataShards < 1 {
		return 0, fmt.Errorf("experiments: dataShards %d", dataShards)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("experiments: failure probability %v outside [0,1]", p)
	}
	if !level.Valid() {
		return 0, fmt.Errorf("experiments: invalid raid level %v", level)
	}
	n := dataShards + level.ParityShards()
	tolerate := level.ParityShards()
	prob := 0.0
	for k := 0; k <= tolerate; k++ {
		prob += binom(n, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
	}
	return prob, nil
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r *= float64(n-i) / float64(i+1)
	}
	return r
}

// MonteCarloSurvival estimates the same probability by simulation; it
// exists to validate the analytic formula and to extend to correlated
// failures later.
func MonteCarloSurvival(dataShards int, level raid.Level, p float64, trials int, rng *rand.Rand) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("experiments: trials %d", trials)
	}
	if _, err := StripeSurvival(dataShards, level, p); err != nil {
		return 0, err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := dataShards + level.ParityShards()
	tolerate := level.ParityShards()
	ok := 0
	for t := 0; t < trials; t++ {
		down := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				down++
			}
		}
		if down <= tolerate {
			ok++
		}
	}
	return float64(ok) / float64(trials), nil
}

// OutageDrillResult reports an end-to-end outage drill.
type OutageDrillResult struct {
	ProvidersDown int
	FilesTotal    int
	FilesReadable int
}

// OutageDrill takes down `down` randomly chosen providers of the
// distributor's fleet and counts how many of the named files remain fully
// retrievable, then restores the fleet. It exercises the real recovery
// path rather than the analytic model.
func OutageDrill(d *core.Distributor, fleet *provider.Fleet, client, password string, files []string, down int, rng *rand.Rand) (OutageDrillResult, error) {
	if down < 0 || down > fleet.Len() {
		return OutageDrillResult{}, fmt.Errorf("experiments: down=%d of %d providers", down, fleet.Len())
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(2))
	}
	perm := rng.Perm(fleet.Len())[:down]
	for _, i := range perm {
		p, err := fleet.At(i)
		if err != nil {
			return OutageDrillResult{}, err
		}
		p.SetOutage(true)
	}
	defer func() {
		for _, i := range perm {
			if p, err := fleet.At(i); err == nil {
				p.SetOutage(false)
			}
		}
	}()
	res := OutageDrillResult{ProvidersDown: down, FilesTotal: len(files)}
	for _, f := range files {
		if _, err := d.GetFile(client, password, f); err == nil {
			res.FilesReadable++
		}
	}
	return res, nil
}
