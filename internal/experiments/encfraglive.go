package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/cryptofrag"
	"repro/internal/dataset"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// EncVsFragLivePoint is one measured row of the §VII-E comparison: the
// same file, the same point query, served by the encrypted single-
// provider baseline and by the fragmenting distributor, with actual
// provider byte counters.
type EncVsFragLivePoint struct {
	ObjectBytes    int
	QueryBytes     int
	EncBytesMoved  int64
	FragBytesMoved int64
	Speedup        float64
	BothCorrect    bool
}

// EncryptionVsFragmentationLive runs both systems for each object size.
func EncryptionVsFragmentationLive(objectSizes []int, queryBytes int, seed int64) ([]EncVsFragLivePoint, error) {
	var out []EncVsFragLivePoint
	key := bytes.Repeat([]byte{0x7A}, 32)
	for _, sz := range objectSizes {
		if queryBytes > sz {
			return nil, fmt.Errorf("experiments: query %d > object %d", queryBytes, sz)
		}
		data := dataset.RandomBytes(sz, rand.New(rand.NewSource(seed)))
		offset := sz / 2

		// Encrypted baseline on one premium provider.
		encProv := provider.MustNew(provider.Info{Name: "vault", PL: privacy.High, CL: 3}, provider.Options{})
		store, err := cryptofrag.NewBaselineStore(encProv, key)
		if err != nil {
			return nil, err
		}
		if err := store.Put("f", data); err != nil {
			return nil, err
		}
		encBefore := store.BytesOut()
		encGot, err := store.GetRange("f", offset, queryBytes)
		if err != nil {
			return nil, err
		}
		encMoved := store.BytesOut() - encBefore

		// Fragmenting distributor over six providers.
		fleet, err := BuildFleet(6)
		if err != nil {
			return nil, err
		}
		l, err := runLab(fleet, core.Config{}, "c", "f", data, privacy.Moderate, core.UploadOptions{})
		if err != nil {
			return nil, err
		}
		fragBefore := int64(0)
		for _, p := range fleet.All() {
			fragBefore += p.Usage().BytesOut
		}
		fragGot, err := l.d.GetRange(l.client, labPassword, "f", offset, queryBytes)
		if err != nil {
			return nil, err
		}
		fragMoved := int64(0)
		for _, p := range fleet.All() {
			fragMoved += p.Usage().BytesOut
		}
		fragMoved -= fragBefore

		point := EncVsFragLivePoint{
			ObjectBytes:    sz,
			QueryBytes:     queryBytes,
			EncBytesMoved:  encMoved,
			FragBytesMoved: fragMoved,
			BothCorrect: bytes.Equal(encGot, data[offset:offset+queryBytes]) &&
				bytes.Equal(fragGot, data[offset:offset+queryBytes]),
		}
		if fragMoved > 0 {
			point.Speedup = float64(encMoved) / float64(fragMoved)
		}
		out = append(out, point)
	}
	return out, nil
}

// FormatEncVsFragLive renders the measured comparison.
func FormatEncVsFragLive(points []EncVsFragLivePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %8s %16s %16s %9s %8s\n", "object", "query", "enc bytes moved", "frag bytes moved", "speedup", "correct")
	for _, p := range points {
		fmt.Fprintf(&b, "%12d %8d %16d %16d %8.1fx %8v\n",
			p.ObjectBytes, p.QueryBytes, p.EncBytesMoved, p.FragBytesMoved, p.Speedup, p.BothCorrect)
	}
	return b.String()
}
