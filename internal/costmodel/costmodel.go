// Package costmodel accounts for the monetary side of the paper's
// trade-off: "It is wise to make a trade off between security and cost by
// providing regular data to cheaper providers while sensitive data to
// secured providers." It bills a fleet at per-cost-level $/GB-month rates
// and compares placement strategies (distributed with RAID parity versus
// a premium single provider).
package costmodel

import (
	"fmt"

	"repro/internal/provider"
)

// Bill is the monthly cost breakdown of a fleet.
type Bill struct {
	PerProvider map[string]float64
	Total       float64
	// BytesStored is the resident byte total across providers (including
	// parity overhead).
	BytesStored int64
}

// FleetBill computes the current monthly bill from resident bytes and each
// provider's cost level.
func FleetBill(fleet *provider.Fleet) (Bill, error) {
	if fleet == nil || fleet.Len() == 0 {
		return Bill{}, fmt.Errorf("costmodel: empty fleet")
	}
	b := Bill{PerProvider: make(map[string]float64, fleet.Len())}
	for i := 0; i < fleet.Len(); i++ {
		p, err := fleet.At(i)
		if err != nil {
			return Bill{}, err
		}
		u := p.Usage()
		gb := float64(u.BytesStored) / (1 << 30)
		cost := gb * p.Info().CL.DollarsPerGBMonth()
		b.PerProvider[p.Info().Name] = cost
		b.Total += cost
		b.BytesStored += u.BytesStored
	}
	return b, nil
}

// SingleProviderCost models the baseline: all bytes on one provider at the
// given cost level, no parity overhead.
func SingleProviderCost(bytes int64, cl int) float64 {
	gb := float64(bytes) / (1 << 30)
	return gb * costLevelDollars(cl)
}

func costLevelDollars(cl int) float64 {
	switch {
	case cl <= 0:
		return 0.05
	case cl == 1:
		return 0.08
	case cl == 2:
		return 0.11
	default:
		return 0.14
	}
}

// Comparison pits the distributed placement against the single-provider
// baseline for the same logical bytes.
type Comparison struct {
	DistributedMonthly float64
	SingleMonthly      float64
	// Ratio is distributed / single; < 1 means the distributed placement
	// is cheaper despite parity, because cheap providers absorb most data.
	Ratio float64
}

// Compare bills the fleet and a hypothetical premium single provider
// (cost level singleCL) holding logicalBytes.
func Compare(fleet *provider.Fleet, logicalBytes int64, singleCL int) (Comparison, error) {
	bill, err := FleetBill(fleet)
	if err != nil {
		return Comparison{}, err
	}
	single := SingleProviderCost(logicalBytes, singleCL)
	c := Comparison{DistributedMonthly: bill.Total, SingleMonthly: single}
	if single > 0 {
		c.Ratio = bill.Total / single
	}
	return c, nil
}
