package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
)

func TestStripeSurvivalBasics(t *testing.T) {
	// p = 0 → always survives; p = 1 → never (with data shards ≥ 1 and
	// tolerance < n).
	for _, lvl := range []raid.Level{raid.None, raid.RAID5, raid.RAID6} {
		s, err := StripeSurvival(4, lvl, 0)
		if err != nil || s != 1 {
			t.Fatalf("%v p=0: %v, %v", lvl, s, err)
		}
		s, err = StripeSurvival(4, lvl, 1)
		if err != nil || s != 0 {
			t.Fatalf("%v p=1: %v, %v", lvl, s, err)
		}
	}
}

func TestStripeSurvivalOrdering(t *testing.T) {
	// At any p ∈ (0,1), RAID6 ≥ RAID5 ≥ None for equal data shards.
	for _, p := range []float64{0.01, 0.05, 0.2, 0.5} {
		s0, _ := StripeSurvival(4, raid.None, p)
		s5, _ := StripeSurvival(4, raid.RAID5, p)
		s6, _ := StripeSurvival(4, raid.RAID6, p)
		if !(s6 > s5 && s5 > s0) {
			t.Fatalf("p=%v: ordering violated: none=%v raid5=%v raid6=%v", p, s0, s5, s6)
		}
	}
}

func TestStripeSurvivalKnownValue(t *testing.T) {
	// 1 data shard + RAID5 parity = 2 shards, tolerate 1:
	// P = (1-p)^2 + 2p(1-p).
	p := 0.1
	want := math.Pow(0.9, 2) + 2*0.1*0.9
	got, err := StripeSurvival(1, raid.RAID5, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestStripeSurvivalValidation(t *testing.T) {
	if _, err := StripeSurvival(0, raid.RAID5, 0.1); err == nil {
		t.Fatal("0 data shards accepted")
	}
	if _, err := StripeSurvival(2, raid.RAID5, -0.1); err == nil {
		t.Fatal("negative p accepted")
	}
	if _, err := StripeSurvival(2, raid.Level(7), 0.1); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestMonteCarloMatchesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct {
		data int
		lvl  raid.Level
		p    float64
	}{
		{4, raid.RAID5, 0.1},
		{4, raid.RAID6, 0.2},
		{2, raid.None, 0.15},
	} {
		analytic, err := StripeSurvival(tc.data, tc.lvl, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := MonteCarloSurvival(tc.data, tc.lvl, tc.p, 20_000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(analytic-mc) > 0.02 {
			t.Fatalf("%+v: analytic %v vs MC %v", tc, analytic, mc)
		}
	}
	if _, err := MonteCarloSurvival(2, raid.RAID5, 0.1, 0, nil); err == nil {
		t.Fatal("0 trials accepted")
	}
}

func TestAvailabilityCurveMonotone(t *testing.T) {
	ps := []float64{0, 0.1, 0.2, 0.3, 0.5, 0.9}
	curve, err := AvailabilityCurve(4, raid.RAID6, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(ps) {
		t.Fatalf("curve points = %d", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i][1] > curve[i-1][1]+1e-12 {
			t.Fatalf("survival not monotone decreasing: %v", curve)
		}
	}
	if _, err := AvailabilityCurve(4, raid.RAID6, []float64{2}); err == nil {
		t.Fatal("bad p accepted")
	}
}

func drillFixture(t *testing.T) (*core.Distributor, *provider.Fleet, []string) {
	t.Helper()
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p := provider.MustNew(provider.Info{
			Name: fmt.Sprintf("dp%d", i), PL: privacy.High, CL: 0,
		}, provider.Options{})
		if err := fleet.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	d, err := core.New(core.Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.RegisterClient("c")
	_ = d.AddPassword("c", "p", privacy.High)
	rng := rand.New(rand.NewSource(7))
	var files []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("f%d", i)
		data := make([]byte, 40_000)
		rng.Read(data)
		if _, err := d.Upload("c", "p", name, data, privacy.Moderate, core.UploadOptions{}); err != nil {
			t.Fatal(err)
		}
		files = append(files, name)
	}
	return d, fleet, files
}

func TestOutageDrillRAID5(t *testing.T) {
	d, fleet, files := drillFixture(t)
	// Zero outages: everything readable.
	res, err := OutageDrill(d, fleet, "c", "p", files, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesReadable != len(files) {
		t.Fatalf("baseline drill: %d/%d readable", res.FilesReadable, res.FilesTotal)
	}
	// One outage: RAID-5 masks it.
	res, err = OutageDrill(d, fleet, "c", "p", files, 1, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesReadable != len(files) {
		t.Fatalf("1-down drill: %d/%d readable", res.FilesReadable, res.FilesTotal)
	}
	// Providers restored afterwards.
	for _, p := range fleet.All() {
		if p.Down() {
			t.Fatal("drill left a provider down")
		}
	}
	if _, err := OutageDrill(d, fleet, "c", "p", files, 99, nil); err == nil {
		t.Fatal("down > fleet accepted")
	}
}

func TestOutageDrillTotalOutage(t *testing.T) {
	d, fleet, files := drillFixture(t)
	res, err := OutageDrill(d, fleet, "c", "p", files, fleet.Len(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesReadable != 0 {
		t.Fatalf("everything down, yet %d files readable", res.FilesReadable)
	}
}
