package mislead

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// mustPositions builds an Injection from literal positions.
func mustPositions(t testing.TB, positions ...int) Injection {
	t.Helper()
	inj, err := FromPositions(positions)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestInjectStripRoundTrip(t *testing.T) {
	data := []byte("the original sensitive payload that must survive")
	rng := rand.New(rand.NewSource(3))
	inflated, inj, err := Inject(data, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(inflated) != len(data)+inj.Count() {
		t.Fatalf("inflated %d bytes, want %d+%d", len(inflated), len(data), inj.Count())
	}
	if inj.Count() == 0 {
		t.Fatal("no decoys injected at fraction 0.3")
	}
	got, err := Strip(inflated, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("strip mismatch: %q", got)
	}
}

func TestInjectFractionValidation(t *testing.T) {
	if _, _, err := Inject([]byte("x"), -0.1, nil); err == nil {
		t.Fatal("negative fraction should error")
	}
	if _, _, err := Inject([]byte("x"), 1.5, nil); err == nil {
		t.Fatal("fraction > 1 should error")
	}
}

func TestInjectZeroFraction(t *testing.T) {
	data := []byte("unchanged")
	out, inj, err := Inject(data, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Count() != 0 || !bytes.Equal(out, data) {
		t.Fatalf("zero fraction changed data: %q, %d decoys", out, inj.Count())
	}
	// Must be a copy, not an alias.
	out[0] = 'X'
	if data[0] != 'u' {
		t.Fatal("Inject aliased input")
	}
}

func TestInjectEmptyPayload(t *testing.T) {
	out, inj, err := Inject(nil, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || inj.Count() != 0 {
		t.Fatalf("empty payload: out=%d decoys=%d", len(out), inj.Count())
	}
}

// InjectTo appends after whatever dst already holds and uses dst's spare
// capacity when it suffices — the pooled-buffer contract the write path
// relies on.
func TestInjectToAppendsInPlace(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh"), 64)
	want, wantInj, err := Inject(data, 0.25, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3, 3+InflatedLen(len(data), 0.25))
	copy(buf, "pre")
	got, inj, err := InjectTo(buf, data, 0.25, NewStream(9))
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Fatal("InjectTo reallocated a buffer that had room")
	}
	if string(got[:3]) != "pre" || !bytes.Equal(got[3:], want) || !reflect.DeepEqual(inj, wantInj) {
		t.Fatal("InjectTo output differs from Inject under the same seed")
	}
	// Too little room: grows like append, prefix preserved.
	got, _, err = InjectTo([]byte("pre"), data, 0.25, NewStream(9))
	if err != nil || string(got[:3]) != "pre" || !bytes.Equal(got[3:], want) {
		t.Fatalf("InjectTo without capacity: err=%v", err)
	}
}

func TestInjectionValidate(t *testing.T) {
	if err := mustPositions(t, 1, 3, 5).Validate(6); err != nil {
		t.Fatal(err)
	}
	if err := mustPositions(t, 6).Validate(6); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	if err := mustPositions(t, 0).Validate(0); err == nil {
		t.Fatal("position accepted in an empty payload")
	}
	for name, inj := range map[string]Injection{
		"count above encoded":   {count: 3, gaps: []byte{0, 0}},
		"count below encoded":   {count: 1, gaps: []byte{0, 0}},
		"negative count":        {count: -1},
		"ends inside a varint":  {count: 1, gaps: []byte{0x80}},
		"varint overflows":      {count: 1, gaps: append(bytes.Repeat([]byte{0xff}, 10), 0x01)},
		"gap wraps past 2^63":   {count: 2, gaps: append([]byte{1}, append(bytes.Repeat([]byte{0xff}, 9), 0x01)...)},
		"positions but no gaps": {count: 2},
	} {
		if err := inj.Validate(1 << 20); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFromPositionsRejectsDisorder(t *testing.T) {
	for name, positions := range map[string][]int{
		"negative":  {-1},
		"duplicate": {3, 3},
		"unsorted":  {5, 2},
	} {
		if _, err := FromPositions(positions); err == nil {
			t.Errorf("%s positions accepted", name)
		}
	}
}

func TestEncodedRoundTrip(t *testing.T) {
	want := []int{0, 1, 2, 130, 131, 20000, 20001}
	inj := mustPositions(t, want...)
	if got := inj.Positions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("positions %v, want %v", got, want)
	}
	if got := inj.First(3); !reflect.DeepEqual(got, want[:3]) {
		t.Fatalf("first 3 = %v", got)
	}
	src := append([]byte(nil), inj.Encoded()...)
	back, err := FromEncoded(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, inj) {
		t.Fatalf("FromEncoded(Encoded()) = %+v, want %+v", back, inj)
	}
	src[0] ^= 0x7f
	if !reflect.DeepEqual(back, inj) {
		t.Fatal("FromEncoded aliased its input")
	}
	if empty, err := FromEncoded(nil); err != nil || !reflect.DeepEqual(empty, Injection{}) || empty.Positions() != nil {
		t.Fatalf("empty encoding: %+v, %v", empty, err)
	}
	if _, err := FromEncoded([]byte{0x01, 0x80}); err == nil {
		t.Fatal("encoding that ends inside a varint accepted")
	}
}

func TestStripRejectsBadInjection(t *testing.T) {
	if _, err := Strip([]byte("abc"), mustPositions(t, 9)); err == nil {
		t.Fatal("bad injection accepted by Strip")
	}
	if _, err := Strip([]byte("abc"), Injection{count: 7, gaps: make([]byte, 7)}); err == nil {
		t.Fatal("more decoys than payload bytes accepted by Strip")
	}
}

func TestStripNoDecoys(t *testing.T) {
	data := []byte("plain")
	got, err := Strip(data, Injection{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("got %q err %v", got, err)
	}
	got[0] = 'X'
	if data[0] != 'p' {
		t.Fatal("Strip aliased input")
	}
}

const canary = 0xa5

// untouched reports whether b still holds only canary bytes.
func untouched(b []byte) bool {
	for _, c := range b {
		if c != canary {
			return false
		}
	}
	return true
}

// StripTo stores ahead of the bytes it returns, and GetFile hands each
// chunk a segment buf[off:off:end] of one file buffer whose neighbours
// other goroutines are stripping into. Every shape is stripped into a
// segment of a canary-filled buffer sized to the kept bytes exactly,
// then with 15 bytes of slack — one short of a whole store — and the
// bytes past the segment must still be canary.
func TestStripToStaysInsideDst(t *testing.T) {
	type shape struct {
		name     string
		inflated []byte
		inj      Injection
	}
	rng := rand.New(rand.NewSource(7))
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var shapes []shape
	for _, gap := range []int{0, 15, 16, 17, 127, 128, 300} {
		// Three runs of gap bytes, each ending in a decoy, then a tail of gap bytes.
		positions := []int{gap, 2*gap + 1, 3*gap + 2}
		shapes = append(shapes, shape{fmt.Sprintf("gap %d", gap), payload(4*gap + 3), mustPositions(t, positions...)})
	}
	all := make([]int, 40)
	for i := range all {
		all[i] = i
	}
	injected, inj, err := Inject(payload(8<<10), 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes,
		shape{"decoy first", payload(40), mustPositions(t, 0)},
		shape{"decoy last", payload(40), mustPositions(t, 39)},
		shape{"all decoys", payload(40), mustPositions(t, all...)},
		shape{"no decoys", payload(40), Injection{}},
		shape{"injected 8 KiB at 0.25", injected, inj},
	)

	for _, s := range shapes {
		want, err := Strip(s.inflated, s.inj)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, slack := range []int{0, 15} {
			end := len(want) + slack
			buf := bytes.Repeat([]byte{canary}, end+16)
			got, err := StripTo(buf[:0:end], s.inflated, s.inj)
			if err != nil || !bytes.Equal(got, want) || !bytes.Equal(buf[:len(want)], want) {
				t.Errorf("%s, slack %d: segment differs from Strip (err %v)", s.name, slack, err)
			}
			if !untouched(buf[end:]) {
				t.Errorf("%s, slack %d: bytes past the segment overwritten", s.name, slack)
			}
		}
	}
}

// Property: StripTo keeps exactly the bytes a byte-by-byte strip keeps,
// the reference being the positions First decodes. The gap lists mix
// one-store runs (0–16), copied runs (17–127) and varint gaps (128 and
// up), and start and end on a decoy, so both the fast loop's hand-over
// to walk's general step and runs of decoys at either end occur. Each
// is stripped into an exact-size segment and one with 15 bytes of
// slack, cut from a canary-filled buffer; nothing past the segment, or
// before it, may change.
func TestStripToMatchesByteStrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 400; trial++ {
		enc := []byte{0} // a decoy at position 0
		inflatedLen := 1
		for n := rng.Intn(300); n > 0; n-- {
			var gap int
			switch rng.Intn(8) {
			case 0, 1:
				gap = 0
			case 2, 3, 4:
				gap = 1 + rng.Intn(16)
			case 5, 6:
				gap = 17 + rng.Intn(111)
			default:
				gap = 128 + rng.Intn(300)
			}
			enc = binary.AppendUvarint(enc, uint64(gap))
			inflatedLen += gap + 1 // the last decoy is the last byte
		}
		inj, err := FromEncoded(enc)
		if err != nil {
			t.Fatal(err)
		}
		inflated := make([]byte, inflatedLen)
		rng.Read(inflated)
		decoy := make([]bool, inflatedLen)
		for _, p := range inj.First(inj.Count()) {
			decoy[p] = true
		}
		if !decoy[0] || !decoy[inflatedLen-1] {
			t.Fatalf("trial %d: positions do not start and end on a decoy", trial)
		}
		var want []byte
		for i, b := range inflated {
			if !decoy[i] {
				want = append(want, b)
			}
		}
		for _, slack := range []int{0, 15} {
			const off = 16
			end := off + len(want) + slack
			buf := bytes.Repeat([]byte{canary}, end+32)
			got, err := StripTo(buf[off:off:end], inflated, inj)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("trial %d, slack %d: StripTo differs from the byte-by-byte strip (err %v)", trial, slack, err)
			}
			if !untouched(buf[:off]) || !untouched(buf[end:]) {
				t.Fatalf("trial %d, slack %d: bytes outside the segment overwritten", trial, slack)
			}
		}
	}
}

func TestDecoyBytesComeFromPayloadDistribution(t *testing.T) {
	// A payload of only 'A' bytes must yield only 'A' decoys.
	data := bytes.Repeat([]byte{'A'}, 1000)
	inflated, inj, err := Inject(data, 0.5, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if inj.Count() == 0 {
		t.Fatal("no decoys")
	}
	for _, b := range inflated {
		if b != 'A' {
			t.Fatalf("decoy byte %q stands out from payload", b)
		}
	}
}

// Property: the sampler places exactly int(len·fraction) decoys, at
// sorted, distinct, in-range positions, for any payload and fraction.
func TestSamplerPositionsProperty(t *testing.T) {
	f := func(n uint16, fracSeed uint8, seed int64) bool {
		data := make([]byte, int(n)%5000)
		frac := float64(fracSeed%101) / 100.0
		inflated, inj, err := Inject(data, frac, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		want := int(float64(len(data)) * frac)
		positions := inj.Positions()
		if inj.Count() != want || len(positions) != want || len(inflated) != len(data)+want {
			return false
		}
		prev := -1
		for _, p := range positions {
			if p <= prev || p >= len(inflated) {
				return false
			}
			prev = p
		}
		return inj.Validate(len(inflated)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The position stream and the decoy bytes are a pure function of the
// seed: determinism gates (simcheck, minecheck) compare whole runs.
func TestSameSeedSameBytes(t *testing.T) {
	data := make([]byte, 8<<10)
	rand.New(rand.NewSource(1)).Read(data)
	a, injA, _ := Inject(data, 0.25, rand.New(rand.NewSource(42)))
	b, injB, _ := Inject(data, 0.25, rand.New(rand.NewSource(42)))
	if !bytes.Equal(a, b) || !reflect.DeepEqual(injA, injB) {
		t.Fatal("same seed produced different output")
	}
	c, _, _ := Inject(data, 0.25, rand.New(rand.NewSource(43)))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical output")
	}
}

// The inflated bytes and gap list for fixed seeds, pinned across builds:
// the output is a pure function of the *rand.Rand, and simcheck trace
// hashes and WAL images rest on that, so no change to InjectTo may move
// a single stored byte or gap.
func TestInjectGolden(t *testing.T) {
	for _, c := range []struct {
		size int
		frac float64
		want string
	}{
		{8 << 10, 0.05, "43efd95841fa9ec91ac2fe126c9e8e44ac3514845dae1620d64d85cb358a34c7"},
		{8 << 10, 0.25, "06656aadfb17541944d626aa7c95f7d2c9f2fdc1353d3bb1c250d8df871d8e84"},
		{64 << 10, 0.05, "207363c3a9e48666011f56f5f3b98ed073c2fb9af9cec51394d0729dd473c47b"},
		{64 << 10, 0.25, "7dc43ed76490989a18e2b68f3ff39fb1e951fd7761aa3131b21424369aeaa851"},
		{64 << 10, 0.02, "8d2e06c8225cd86639e3f2eb161c14e456f6f5d2f92c31446d1fa179a73742d5"}, // holds gaps of 127, 128 and 129: both sides of the one-byte uvarint
	} {
		data := make([]byte, c.size)
		rand.New(rand.NewSource(1)).Read(data)
		inflated, inj, err := Inject(data, c.frac, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(inflated)
		h.Write(inj.Encoded())
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%d KiB at %.2f: sha256(inflated, gaps) = %s, want %s", c.size>>10, c.frac, got, c.want)
		}
	}
}

// Every slot of the inflated payload is equally likely to hold a decoy.
// 20 000 draws of 12 decoys in 60 slots: each slot expects 4 000 hits,
// standard deviation √(20000·0.2·0.8) ≈ 57; ±6σ keeps the test quiet
// across seeds while a biased sampler (say one favouring the tail, the
// classic Floyd off-by-one) misses by thousands.
func TestSamplerUniform(t *testing.T) {
	const draws, size, frac = 20000, 48, 0.25
	data := make([]byte, size)
	rng := rand.New(rand.NewSource(11))
	var hits [size + size/4]int
	for i := 0; i < draws; i++ {
		_, inj, err := Inject(data, frac, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range inj.Positions() {
			hits[p]++
		}
	}
	p := float64(size/4) / float64(len(hits))
	mean := draws * p
	tol := 6 * math.Sqrt(draws*p*(1-p))
	for slot, h := range hits {
		if math.Abs(float64(h)-mean) > tol {
			t.Errorf("slot %d hit %d times, want %.0f ± %.0f", slot, h, mean, tol)
		}
	}
}

// Inject's cost is pinned so the permutation-and-sort sampler (80 KB and
// a dozen allocations per 8 KiB chunk) cannot come back unnoticed: the
// inflated payload and the gap list, nothing else.
func TestInjectAllocationBudget(t *testing.T) {
	for _, frac := range []float64{0.05, 0.25} {
		data := make([]byte, 8<<10)
		rng := rand.New(rand.NewSource(1))
		var inj Injection
		var out []byte
		call := func() { out, inj, _ = Inject(data, frac, rng) }
		call() // warm the scratch pool
		if allocs := testing.AllocsPerRun(200, call); allocs > 2 {
			t.Errorf("fraction %v: %v allocs per Inject, want <= 2", frac, allocs)
		}
		if got, limit := cap(out)+cap(inj.gaps), len(out)*3/2; got > limit {
			t.Errorf("fraction %v: Inject holds %d bytes for a %d-byte payload, want <= %d", frac, got, len(out), limit)
		}
		// The bulk read path strips every chunk straight into its segment
		// of the file buffer, without allocating.
		dst := make([]byte, 0, len(data))
		if allocs := testing.AllocsPerRun(200, func() { benchOut, _ = StripTo(dst, out, inj) }); allocs != 0 {
			t.Errorf("fraction %v: %v allocs per StripTo into a sufficient dst, want 0", frac, allocs)
		}
	}
}

func TestInjectLinesRoundTrip(t *testing.T) {
	data := []byte("r1,a\nr2,b\nr3,c\n")
	decoys := [][]byte{[]byte("fake1,x"), []byte("fake2,y\n")}
	inflated, inj, err := InjectLines(data, decoys, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(inflated, []byte("fake1,x")) || !bytes.Contains(inflated, []byte("fake2,y")) {
		t.Fatalf("decoys missing: %q", inflated)
	}
	got, err := Strip(inflated, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("strip mismatch: %q", got)
	}
	// Decoy lines must be whole lines (count rises by exactly 2).
	origLines := strings.Count(string(data), "\n")
	inflLines := strings.Count(string(inflated), "\n")
	if inflLines != origLines+2 {
		t.Fatalf("lines %d → %d, want +2", origLines, inflLines)
	}
}

// A decoy line is a run of adjacent positions, so in the gap list every
// byte of a line after its first is a gap of 0 — and the list survives
// persistence (Encoded → FromEncoded) and still strips exactly.
func TestInjectLinesGapForm(t *testing.T) {
	data := []byte("r1,a\nr2,b\nr3,c\n")
	decoys := [][]byte{[]byte("fake1,x"), []byte("fake2,y\n")}
	inflated, inj, err := InjectLines(data, decoys, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if want := len("fake1,x\n") + len("fake2,y\n"); inj.Count() != want || len(inj.Encoded()) != want {
		t.Fatalf("%d decoys in %d encoded bytes, want %d one-byte gaps", inj.Count(), len(inj.Encoded()), want)
	}
	nonzero := 0
	for _, g := range inj.Encoded() {
		if g != 0 {
			nonzero++
		}
	}
	if nonzero > len(decoys) {
		t.Fatalf("%d non-zero gaps for %d decoy lines: runs are not adjacent", nonzero, len(decoys))
	}
	positions := inj.Positions()
	for i, p := range positions {
		if !bytes.Contains([]byte("fake1,x\nfake2,y\n"), inflated[p:p+1]) {
			t.Fatalf("position %d (#%d) holds %q, not a decoy byte", p, i, inflated[p])
		}
	}
	back, err := FromEncoded(inj.Encoded())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Strip(inflated, back)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("strip through the persisted form: %q, %v", got, err)
	}
}

func TestInjectLinesNoDecoys(t *testing.T) {
	data := []byte("a\nb\n")
	out, inj, err := InjectLines(data, nil, nil)
	if err != nil || inj.Count() != 0 || !bytes.Equal(out, data) {
		t.Fatalf("out=%q inj=%d err=%v", out, inj.Count(), err)
	}
}

func TestOverhead(t *testing.T) {
	if Overhead(0, Injection{}) != 0 {
		t.Fatal("zero-length overhead should be 0")
	}
	positions := make([]int, 25)
	for i := range positions {
		positions[i] = i
	}
	if got := Overhead(100, mustPositions(t, positions...)); got != 0.25 {
		t.Fatalf("overhead = %v, want 0.25", got)
	}
}

// Property: Inject→Strip is the identity for arbitrary payloads/fractions.
func TestInjectStripRoundTripProperty(t *testing.T) {
	f := func(data []byte, fracSeed uint8, seed int64) bool {
		frac := float64(fracSeed%101) / 100.0
		rng := rand.New(rand.NewSource(seed))
		inflated, inj, err := Inject(data, frac, rng)
		if err != nil {
			return false
		}
		if inj.Validate(len(inflated)) != nil {
			return false
		}
		got, err := Strip(inflated, inj)
		if err != nil {
			return false
		}
		if data == nil {
			return len(got) == 0
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: InjectLines→Strip is the identity.
func TestInjectLinesRoundTripProperty(t *testing.T) {
	f := func(nLines uint8, nDecoys uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var data []byte
		for i := 0; i < int(nLines%20)+1; i++ {
			data = append(data, []byte("row,value\n")...)
		}
		var decoys [][]byte
		for i := 0; i < int(nDecoys%5); i++ {
			decoys = append(decoys, []byte("decoy,row"))
		}
		inflated, inj, err := InjectLines(data, decoys, rng)
		if err != nil {
			return false
		}
		got, err := Strip(inflated, inj)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

var (
	benchOut []byte
	benchInj Injection
)

// benchShapes are the chunk sizes the privacy levels use (PL3 8 KiB,
// PL2 16 KiB, PL0 64 KiB) crossed with a sparse and the benchmark's
// defended-large decoy fraction.
func benchShapes(b *testing.B, run func(b *testing.B, data []byte, frac float64)) {
	for _, size := range []int{8 << 10, 16 << 10, 64 << 10} {
		for _, frac := range []float64{0.05, 0.25} {
			data := make([]byte, size)
			rand.New(rand.NewSource(1)).Read(data)
			b.Run(fmt.Sprintf("%dKiB/f%.2f", size>>10, frac), func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				run(b, data, frac)
			})
		}
	}
}

// BenchmarkInject times InjectTo the way the write path calls it: one
// Stream carried from chunk to chunk, so no case pays Inject's 607-draw
// bootstrap, which a write pays once per file.
func BenchmarkInject(b *testing.B) {
	benchShapes(b, func(b *testing.B, data []byte, frac float64) {
		s := NewStream(1)
		dst := make([]byte, 0, InflatedLen(len(data), frac))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchOut, benchInj, _ = InjectTo(dst, data, frac, s)
		}
	})
	// The shape a defended upload injects: a 4 MiB PL3 object's 512
	// chunks, each its own payload, from one Stream per file into buffers
	// of their own. The cases above replay one chunk that stays in cache.
	b.Run("file4MiB/f0.25", func(b *testing.B) {
		const chunk, chunks = 8 << 10, 512
		rng := rand.New(rand.NewSource(1))
		data := make([][]byte, chunks)
		dsts := make([][]byte, chunks)
		for c := range data {
			data[c] = make([]byte, chunk)
			rng.Read(data[c])
			dsts[c] = make([]byte, 0, InflatedLen(chunk, 0.25))
		}
		b.SetBytes(chunk * chunks)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := NewStream(int64(i))
			for c := range data {
				benchOut, benchInj, _ = InjectTo(dsts[c], data[c], 0.25, s)
			}
		}
	})
}

func BenchmarkStripTo(b *testing.B) {
	benchShapes(b, func(b *testing.B, data []byte, frac float64) {
		inflated, inj, _ := Inject(data, frac, rand.New(rand.NewSource(1)))
		dst := make([]byte, 0, len(data))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchOut, _ = StripTo(dst[:0], inflated, inj)
		}
	})
	// The shape GetFile strips: a 4 MiB PL3 object's 512 chunks, each its
	// own payload, into segments of one file buffer. The cases above replay
	// one chunk that stays in cache and understate the read path's cost.
	b.Run("file4MiB/f0.25", func(b *testing.B) {
		const chunk, chunks = 8 << 10, 512
		rng := rand.New(rand.NewSource(1))
		inflated := make([][]byte, chunks)
		injs := make([]Injection, chunks)
		for c := range inflated {
			data := make([]byte, chunk)
			rng.Read(data)
			inflated[c], injs[c], _ = Inject(data, 0.25, rng)
		}
		file := make([]byte, chunk*chunks)
		b.SetBytes(int64(len(file)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for c := range inflated {
				off := c * chunk
				benchOut, _ = StripTo(file[off:off:off+chunk], inflated[c], injs[c])
			}
		}
	})
}
