package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// CostResult quantifies the paper's §IV-B trade-off: "It is wise to make
// a trade off between security and cost by providing regular data to
// cheaper providers while sensitive data to secured providers."
type CostResult struct {
	LogicalBytes    int64
	StoredBytes     int64 // includes parity overhead
	DistributedBill float64
	SingleBill      float64 // premium single provider (CL3)
	Ratio           float64
	PerProvider     map[string]float64
	// SensitiveOnTrusted verifies the policy: fraction of PL3 chunk bytes
	// on PL3 providers (must be 1.0).
	SensitiveOnTrusted float64
}

// CostTradeoff uploads a mixed-sensitivity workload into a mixed-price
// fleet and bills both architectures.
func CostTradeoff(filesPerLevel int, fileBytes int, seed int64) (*CostResult, error) {
	fleet, err := fleetOf(
		provider.Info{Name: "fortress", PL: privacy.High, CL: 3},
		provider.Info{Name: "citadel", PL: privacy.High, CL: 2},
		provider.Info{Name: "vaulted", PL: privacy.High, CL: 2},
		provider.Info{Name: "midtier", PL: privacy.Moderate, CL: 1},
		provider.Info{Name: "bargain", PL: privacy.Low, CL: 0},
		provider.Info{Name: "budget", PL: privacy.Public, CL: 0},
	)
	if err != nil {
		return nil, err
	}
	l, err := newLab(fleet, core.Config{}, "acct")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var logical int64
	for _, pl := range []privacy.Level{privacy.Public, privacy.Low, privacy.Moderate, privacy.High} {
		for i := 0; i < filesPerLevel; i++ {
			name := fmt.Sprintf("f-%v-%d", pl, i)
			data := dataset.RandomBytes(fileBytes, rng)
			if _, err := l.store(name, data, pl, core.UploadOptions{}); err != nil {
				return nil, err
			}
			logical += int64(fileBytes)
		}
	}

	bill, err := costmodel.FleetBill(fleet)
	if err != nil {
		return nil, err
	}
	cmp, err := costmodel.Compare(fleet, logical, 3)
	if err != nil {
		return nil, err
	}

	// Verify the sensitivity constraint on actual placements.
	sensitiveTotal, sensitiveTrusted := 0, 0
	for _, row := range l.d.ChunkTable() {
		if row.PL != privacy.High {
			continue
		}
		sensitiveTotal++
		p, err := fleet.At(row.CPIndex)
		if err != nil {
			return nil, err
		}
		if p.Info().PL >= privacy.High {
			sensitiveTrusted++
		}
	}
	frac := 1.0
	if sensitiveTotal > 0 {
		frac = float64(sensitiveTrusted) / float64(sensitiveTotal)
	}
	return &CostResult{
		LogicalBytes:       logical,
		StoredBytes:        bill.BytesStored,
		DistributedBill:    cmp.DistributedMonthly,
		SingleBill:         cmp.SingleMonthly,
		Ratio:              cmp.Ratio,
		PerProvider:        bill.PerProvider,
		SensitiveOnTrusted: frac,
	}, nil
}

// FormatCost renders the billing comparison.
func FormatCost(r *CostResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "logical bytes: %d, stored (with parity): %d (overhead %.2fx)\n",
		r.LogicalBytes, r.StoredBytes, float64(r.StoredBytes)/float64(r.LogicalBytes))
	names := make([]string, 0, len(r.PerProvider))
	for n := range r.PerProvider {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-10s $%.6f/month\n", n, r.PerProvider[n])
	}
	fmt.Fprintf(&b, "distributed bill: $%.6f/month vs premium single provider: $%.6f/month (ratio %.2f)\n",
		r.DistributedBill, r.SingleBill, r.Ratio)
	fmt.Fprintf(&b, "PL3 chunks on PL3 providers: %.0f%%\n", r.SensitiveOnTrusted*100)
	return b.String()
}
