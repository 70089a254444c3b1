package costmodel

import (
	"math"
	"testing"

	"repro/internal/privacy"
	"repro/internal/provider"
)

func TestFleetBill(t *testing.T) {
	cheap := provider.MustNew(provider.Info{Name: "cheap", PL: privacy.High, CL: 0}, provider.Options{})
	dear := provider.MustNew(provider.Info{Name: "dear", PL: privacy.High, CL: 3}, provider.Options{})
	fleet, _ := provider.NewFleet(cheap, dear)
	_ = cheap.Put("a", make([]byte, 1<<20)) // 1 MiB
	_ = dear.Put("b", make([]byte, 2<<20))  // 2 MiB

	bill, err := FleetBill(fleet)
	if err != nil {
		t.Fatal(err)
	}
	wantCheap := (1.0 / 1024) * 0.05
	wantDear := (2.0 / 1024) * 0.14
	if math.Abs(bill.PerProvider["cheap"]-wantCheap) > 1e-9 {
		t.Fatalf("cheap = %v, want %v", bill.PerProvider["cheap"], wantCheap)
	}
	if math.Abs(bill.PerProvider["dear"]-wantDear) > 1e-9 {
		t.Fatalf("dear = %v, want %v", bill.PerProvider["dear"], wantDear)
	}
	if math.Abs(bill.Total-(wantCheap+wantDear)) > 1e-9 {
		t.Fatalf("total = %v", bill.Total)
	}
	if bill.BytesStored != 3<<20 {
		t.Fatalf("bytes = %d", bill.BytesStored)
	}
}

func TestFleetBillEmpty(t *testing.T) {
	if _, err := FleetBill(nil); err == nil {
		t.Fatal("nil fleet accepted")
	}
	empty, _ := provider.NewFleet()
	if _, err := FleetBill(empty); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestSingleProviderCost(t *testing.T) {
	if got := SingleProviderCost(1<<30, 3); math.Abs(got-0.14) > 1e-9 {
		t.Fatalf("1 GiB at CL3 = %v", got)
	}
	if got := SingleProviderCost(0, 3); got != 0 {
		t.Fatalf("0 bytes = %v", got)
	}
	// Cost levels map to increasing rates.
	prev := 0.0
	for cl := 0; cl <= 3; cl++ {
		c := SingleProviderCost(1<<30, cl)
		if c <= prev {
			t.Fatalf("cost not increasing at CL%d", cl)
		}
		prev = c
	}
}

func TestCompareDistributedVsSingle(t *testing.T) {
	// The paper's trade-off: scattering over cheap providers can beat a
	// premium single provider even with RAID-5 parity overhead.
	fleet, _ := provider.NewFleet(
		provider.MustNew(provider.Info{Name: "c0", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "c1", PL: privacy.High, CL: 0}, provider.Options{}),
		provider.MustNew(provider.Info{Name: "c2", PL: privacy.High, CL: 0}, provider.Options{}),
	)
	logical := int64(3 << 20)
	perProv := logical / 3
	overhead := int64(float64(perProv) / 2) // RAID5 over width 2 ≈ +50%/2
	for i, p := range fleet.All() {
		mem := p.(*provider.MemProvider)
		_ = mem.Put("data", make([]byte, perProv))
		if i == 0 {
			_ = mem.Put("parity", make([]byte, overhead))
		}
	}
	cmp, err := Compare(fleet, logical, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Ratio >= 1 {
		t.Fatalf("distributed (%v) not cheaper than premium single (%v)", cmp.DistributedMonthly, cmp.SingleMonthly)
	}
	if cmp.DistributedMonthly <= 0 || cmp.SingleMonthly <= 0 {
		t.Fatalf("degenerate comparison: %+v", cmp)
	}
}
