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
// payload minus Count bytes. StripTo into an exact-size segment of a
// canary-filled buffer, the way GetFile strips, must reach the same
// verdict and bytes and write nothing past the segment.
func FuzzStripHostile(f *testing.F) {
	f.Add([]byte("abc"), []byte{0, 1}, 2)
	f.Add([]byte{}, []byte{5}, -3)
	f.Add([]byte("abcdef"), []byte{0x80}, 1)
	f.Add([]byte("abcdef"), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}, 2)
	// Runs either side of the 16-byte store, at the segment's end and the payload's.
	alnum := []byte("0123456789abcdefghijklmnopqrstuvwxyz")
	f.Add(alnum[:35], []byte{16, 17}, 2)
	f.Add(alnum[:17], []byte{16}, 1)
	f.Add(alnum[:18], []byte{17}, 1)
	f.Add(alnum[:34], []byte{16}, 1)
	// Gaps of 16, 17, 127 and 128 within 16 bytes of either end. Each of
	// the first three reaches one byte past the payload, and the forged
	// count of 0 leaves the segment room for the run: only the fast
	// loop's bounds keep the walk from stepping past the end, which the
	// varint gap after it would then read beyond (the payloads are cut
	// to their length, so that read panics).
	long := bytes.Repeat(alnum, 8)
	f.Add(long[:16:16], []byte{16, 0x80, 0x01}, 0)
	f.Add(long[:17:17], []byte{17, 0x80, 0x01}, 0)
	f.Add(long[:127:127], []byte{127, 0x80, 0x01}, 0)
	f.Add(long[:129:129], []byte{0x80, 0x01}, 1)
	f.Add(long[:145:145], []byte{0x80, 0x01, 16}, 2)
	f.Add(long[:164:164], []byte{16, 17, 127}, 3)
	f.Fuzz(func(t *testing.T, data, enc []byte, count int) {
		check := func(inj Injection) {
			want, err := Strip(data, inj)
			if err == nil && len(want) != len(data)-inj.Count() {
				t.Fatalf("accepted %d decoys in %d bytes but kept %d", inj.Count(), len(data), len(want))
			}
			kept := min(max(len(data)-inj.Count(), 0), len(data))
			buf := bytes.Repeat([]byte{canary}, kept+32)
			got, errTo := StripTo(buf[:0:kept], data, inj)
			if (err == nil) != (errTo == nil) {
				t.Fatalf("Strip says %v, StripTo says %v", err, errTo)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatal("StripTo and Strip kept different bytes")
			}
			if !untouched(buf[kept:]) {
				t.Fatalf("StripTo wrote past its %d-byte segment", kept)
			}
			_ = inj.Positions()
		}
		if inj, err := FromEncoded(enc); err == nil {
			check(inj)
		}
		check(Injection{count: count, gaps: enc})
	})
}
