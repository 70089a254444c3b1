package mislead

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzInjectStrip fuzzes decoy injection/removal.
func FuzzInjectStrip(f *testing.F) {
	f.Add([]byte("payload"), 0.3, int64(1))
	f.Add([]byte{}, 0.9, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, frac float64, seed int64) {
		if frac < 0 || frac > 1 {
			return
		}
		inflated, inj, err := Inject(data, frac, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("inject: %v", err)
		}
		got, err := Strip(inflated, inj)
		if err != nil {
			t.Fatalf("strip: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzStripHostile feeds Strip arbitrary encoded position bytes — what a
// corrupt-but-CRC-valid WAL frame could carry — both through FromEncoded
// and with a forged count beside them: it must never panic or read
// outside the payload, and whatever it accepts must strip to exactly the
// payload minus Count bytes.
func FuzzStripHostile(f *testing.F) {
	f.Add([]byte("abc"), []byte{0, 1}, 2)
	f.Add([]byte{}, []byte{5}, -3)
	f.Add([]byte("abcdef"), []byte{0x80}, 1)
	f.Add([]byte("abcdef"), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}, 2)
	f.Fuzz(func(t *testing.T, data, enc []byte, count int) {
		check := func(inj Injection) {
			got, err := Strip(data, inj)
			if err == nil && len(got) != len(data)-inj.Count() {
				t.Fatalf("accepted %d decoys in %d bytes but kept %d", inj.Count(), len(data), len(got))
			}
			_ = inj.Positions()
		}
		if inj, err := FromEncoded(enc); err == nil {
			check(inj)
		}
		check(Injection{count: count, gaps: enc})
	})
}
