package raid

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refParityPQ is the scalar RAID-6 parity: the retained reference
// kernels applied shard by shard, exactly as Encode did before the
// word-wide kernels landed.
func refParityPQ(data [][]byte, p, q []byte) {
	for i := range p {
		p[i] = 0
		q[i] = 0
	}
	for j, d := range data {
		xorSliceRef(p, d)
		mulSliceXorRef(gfPow(j), d, q)
	}
}

// TestKernelsMatchReference is the property test the ISSUE requires:
// every optimized kernel must be byte-identical to its scalar reference
// for all lengths 0..257 and random coefficients — the range straddles
// the 8-byte word boundary and the 32-byte unrolled block in every
// phase combination.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 257; n++ {
		src := make([]byte, n)
		base := make([]byte, n)
		rng.Read(src)
		rng.Read(base)

		// xorSlice vs xorSliceRef.
		got, want := append([]byte(nil), base...), append([]byte(nil), base...)
		xorSlice(got, src)
		xorSliceRef(want, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("xorSlice mismatch at n=%d", n)
		}

		// mul2Slice / mul2SliceXor vs the reference multiply by g=2.
		got = append([]byte(nil), base...)
		mul2Slice(got)
		want = make([]byte, n)
		mulSliceRef(2, base, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("mul2Slice mismatch at n=%d", n)
		}
		got = append([]byte(nil), base...)
		mul2SliceXor(got, src)
		for i := range want {
			want[i] = gfMul(2, base[i]) ^ src[i]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mul2SliceXor mismatch at n=%d", n)
		}

		// Split-nibble table kernels vs the log/antilog reference, for a
		// random coefficient plus the edge coefficients 0, 1, 2, 255.
		for _, c := range []byte{0, 1, 2, 255, byte(rng.Intn(256))} {
			tab := makeMulTable(c)
			got, want = make([]byte, n), make([]byte, n)
			tab.mulSlice(src, got)
			mulSliceRef(c, src, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("mulSlice mismatch at n=%d c=%d", n, c)
			}
			// In-place aliasing (src == dst) is part of the contract.
			got = append([]byte(nil), src...)
			tab.mulSlice(got, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("in-place mulSlice mismatch at n=%d c=%d", n, c)
			}
		}

		// Horner-encoded parity vs the reference parity.
		for _, k := range []int{1, 2, 4, 7} {
			data := make([][]byte, k)
			for j := range data {
				data[j] = make([]byte, n)
				rng.Read(data[j])
			}
			p, q := make([]byte, n), make([]byte, n)
			parityPQ(data, p, q)
			rp, rq := make([]byte, n), make([]byte, n)
			refParityPQ(data, rp, rq)
			if !bytes.Equal(p, rp) || !bytes.Equal(q, rq) {
				t.Fatalf("parityPQ mismatch at n=%d k=%d", n, k)
			}
		}

		// Two-loss solve vs the per-byte gfDiv/gfMul formula.
		a, b := rng.Intn(6), rng.Intn(6)
		if a == b {
			b = a + 1
		}
		pr, qr := make([]byte, n), make([]byte, n)
		rng.Read(pr)
		rng.Read(qr)
		dA, dB := make([]byte, n), make([]byte, n)
		solveTwoLoss(pr, qr, dA, dB, a, b)
		gb, denom := gfPow(b), gfPow(a)^gfPow(b)
		for i := 0; i < n; i++ {
			wantA := gfDiv(qr[i]^gfMul(gb, pr[i]), denom)
			if dA[i] != wantA || dB[i] != pr[i]^wantA {
				t.Fatalf("solveTwoLoss mismatch at n=%d i=%d", n, i)
			}
		}
	}
}

// TestParityIntoMatchesEncode pins ParityInto to Encode's parity for
// every level.
func TestParityIntoMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, level := range []Level{None, RAID5, RAID6} {
		for _, n := range []int{1, 9, 257} {
			data := make([][]byte, 4)
			for j := range data {
				data[j] = make([]byte, n)
				rng.Read(data[j])
			}
			parity := make([][]byte, level.ParityShards())
			for i := range parity {
				parity[i] = make([]byte, n)
			}
			if err := ParityInto(level, data, parity); err != nil {
				t.Fatal(err)
			}
			s, err := Encode(level, data)
			if err != nil {
				t.Fatal(err)
			}
			for i := range parity {
				if !bytes.Equal(parity[i], s.Shards[4+i]) {
					t.Fatalf("%v parity %d differs from Encode", level, i)
				}
			}
		}
	}
}

// TestParityIntoRejectsBadShapes covers the validation paths.
func TestParityIntoRejectsBadShapes(t *testing.T) {
	d := [][]byte{{1, 2}, {3, 4}}
	cases := []struct {
		name   string
		level  Level
		data   [][]byte
		parity [][]byte
	}{
		{"bad level", Level(9), d, nil},
		{"no data", RAID5, nil, [][]byte{{0, 0}}},
		{"ragged data", RAID5, [][]byte{{1, 2}, {3}}, [][]byte{{0, 0}}},
		{"parity count", RAID6, d, [][]byte{{0, 0}}},
		{"parity length", RAID5, d, [][]byte{{0}}},
	}
	for _, tc := range cases {
		if err := ParityInto(tc.level, tc.data, tc.parity); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// BenchmarkParityKernel compares the retained scalar reference against
// the optimized word-wide kernels at the 64 KiB acceptance point —
// pure parity computation, no stripe allocation or data copies.
func BenchmarkParityKernel(b *testing.B) {
	const shardLen = 64 << 10
	data := benchShards(4, shardLen)
	p, q := make([]byte, shardLen), make([]byte, shardLen)
	b.Run("raid6/scalar/64KiB", func(b *testing.B) {
		b.SetBytes(int64(4 * shardLen))
		for i := 0; i < b.N; i++ {
			refParityPQ(data, p, q)
		}
	})
	b.Run("raid6/word/64KiB", func(b *testing.B) {
		b.SetBytes(int64(4 * shardLen))
		for i := 0; i < b.N; i++ {
			parityPQ(data, p, q)
		}
	})
}

// BenchmarkReconstructKernel compares the two-data-loss repair math
// (residues plus solve) scalar vs optimized, at 64 KiB shards.
func BenchmarkReconstructKernel(b *testing.B) {
	const shardLen = 64 << 10
	data := benchShards(4, shardLen)
	s, err := Encode(RAID6, data)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, fn func()) {
		b.Run(fmt.Sprintf("raid6/2data/%s/64KiB", name), func(b *testing.B) {
			b.SetBytes(int64(4 * shardLen))
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	pr, qr := make([]byte, shardLen), make([]byte, shardLen)
	dA, dB := make([]byte, shardLen), make([]byte, shardLen)
	a, bIdx := 1, 2
	gb, denom := gfPow(bIdx), gfPow(a)^gfPow(bIdx)
	run("scalar", func() {
		copy(pr, s.Shards[4])
		copy(qr, s.Shards[5])
		for j := 0; j < 4; j++ {
			if j == a || j == bIdx {
				continue
			}
			xorSliceRef(pr, s.Shards[j])
			mulSliceXorRef(gfPow(j), s.Shards[j], qr)
		}
		for i := range pr {
			dA[i] = gfDiv(qr[i]^gfMul(gb, pr[i]), denom)
			dB[i] = pr[i] ^ dA[i]
		}
	})
	tmp := make([]byte, shardLen)
	run("word", func() {
		// Residues via the same skip-aware kernels Reconstruct uses.
		copy(pr, s.Shards[4])
		for i := range tmp {
			tmp[i] = 0
		}
		for j := 3; j >= 0; j-- {
			if j == a || j == bIdx {
				mul2Slice(tmp)
				continue
			}
			mul2SliceXor(tmp, s.Shards[j])
			xorSlice(pr, s.Shards[j])
		}
		copy(qr, s.Shards[5])
		xorSlice(qr, tmp)
		solveTwoLoss(pr, qr, dA, dB, a, bIdx)
	})
}
