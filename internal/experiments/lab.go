package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// lab is the one in-process deployment the experiments store data on: a
// fleet, one distributor made from the experiment's own core.Config, and
// one registered client whose password unlocks every privacy level.
// Kapusta & Memmi's survey judges dispersal by what a subset of fragments
// reveals, and insiders is how every experiment asks it.
type lab struct {
	fleet  *provider.Fleet
	d      *core.Distributor
	client string
	file   core.FileInfo // the file runLab stored
	took   time.Duration // and how long its upload took
}

// labPassword is the lab client's one password, registered at PL3.
const labPassword = "pw"

// newLab makes the distributor over fleet from cfg and registers client.
func newLab(fleet *provider.Fleet, cfg core.Config, client string) (*lab, error) {
	cfg.Fleet = fleet
	d, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.RegisterClient(client); err != nil {
		return nil, err
	}
	if err := d.AddPassword(client, labPassword, privacy.High); err != nil {
		return nil, err
	}
	return &lab{fleet: fleet, d: d, client: client}, nil
}

// runLab is newLab storing one file, timed.
func runLab(fleet *provider.Fleet, cfg core.Config, client, filename string, data []byte, pl privacy.Level, opts core.UploadOptions) (*lab, error) {
	l, err := newLab(fleet, cfg, client)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if l.file, err = l.store(filename, data, pl, opts); err != nil {
		return nil, err
	}
	l.took = time.Since(start)
	return l, nil
}

// store uploads one file as the lab's client.
func (l *lab) store(filename string, data []byte, pl privacy.Level, opts core.UploadOptions) (core.FileInfo, error) {
	return l.d.Upload(l.client, labPassword, filename, data, pl, opts)
}

// insiders dumps what the providers hold: each provider's blobs, in
// fleet order, and the pooled view of the whole fleet colluding.
func (l *lab) insiders() (each [][]attack.Blob, pooled []attack.Blob, err error) {
	all := make([]int, l.fleet.Len())
	for i := range all {
		all[i] = i
		blobs, err := attack.DumpProviders(l.fleet, all[i:i+1])
		if err != nil {
			return nil, nil, err
		}
		each = append(each, blobs)
	}
	pooled, err = attack.DumpProviders(l.fleet, all)
	return each, pooled, err
}

// wholeVersusInsiders stores body once on a lone provider and once in
// small chunks across nProviders at pl, then scores the whole-data
// attacker as "full" and each insider under its provider's name.
func wholeVersusInsiders[P any](body []byte, nProviders int, client, filename string, pl privacy.Level, score func(scope string, blobs []attack.Blob) P) ([]P, error) {
	solo, err := fleetOf(provider.Info{Name: "solo", PL: privacy.High, CL: 0})
	if err != nil {
		return nil, err
	}
	whole, err := runLab(solo, core.Config{StripeWidth: 1}, client, filename, body, privacy.Public, core.UploadOptions{NoParity: true})
	if err != nil {
		return nil, err
	}
	_, blobs, err := whole.insiders()
	if err != nil {
		return nil, err
	}
	out := []P{score("full", blobs)}

	fleet, err := BuildFleet(nProviders)
	if err != nil {
		return nil, err
	}
	policy := privacy.ChunkSizePolicy{SizeByLevel: map[privacy.Level]int{
		privacy.Public: 1 << 10, privacy.Low: 1 << 10, privacy.Moderate: 512, privacy.High: 256,
	}}
	split, err := runLab(fleet, core.Config{ChunkPolicy: policy, StripeWidth: nProviders}, client, filename, body, pl, core.UploadOptions{NoParity: true})
	if err != nil {
		return nil, err
	}
	each, _, err := split.insiders()
	if err != nil {
		return nil, err
	}
	for i, blobs := range each {
		p, _ := fleet.At(i)
		out = append(out, score(p.Info().Name, blobs))
	}
	return out, nil
}

// BuildFleet constructs n in-memory providers, all PL3, with rotating
// cost levels.
func BuildFleet(n int) (*provider.Fleet, error) {
	infos := make([]provider.Info, n)
	for i := range infos {
		infos[i] = provider.Info{Name: fmt.Sprintf("cp%02d", i), PL: privacy.High, CL: privacy.CostLevel(i % 4)}
	}
	return fleetOf(infos...)
}

// fleetOf builds a fleet of named in-memory providers, such as Table IV's
// Titans, Spartans and Yagamis.
func fleetOf(infos ...provider.Info) (*provider.Fleet, error) {
	ps := make([]provider.Provider, len(infos))
	for i, info := range infos {
		ps[i] = provider.MustNew(info, provider.Options{})
	}
	return provider.NewFleet(ps...)
}

// biddingHistory draws n rows of model as CSV, seeded, beside the planted
// model an attacker's fit is scored against.
func biddingHistory(n int, model dataset.BiddingModel, seed int64) ([]byte, *mining.RegressionModel) {
	recs := dataset.GenerateBiddingHistory(n, model, rand.New(rand.NewSource(seed)))
	return dataset.BiddingCSV(recs), &mining.RegressionModel{Coeffs: []float64{model.A, model.B, model.C}, Intercept: model.D}
}

// fitError scores a bidding attack against the planted model: its
// relative coefficient error, or failed when it fit no model at all.
func fitError(r attack.BiddingResult, truth *mining.RegressionModel) (relErr float64, failed bool, err error) {
	if r.Model == nil {
		return 0, true, nil
	}
	relErr, err = mining.RelativeCoefficientError(r.Model, truth)
	return relErr, false, err
}

// scoreCell prints a score column: the value, or "-" where the attack
// failed.
func scoreCell(v float64, failed bool) string {
	if failed {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
