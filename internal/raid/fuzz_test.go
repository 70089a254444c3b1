package raid

import (
	"bytes"
	"testing"
)

// FuzzKernels cross-checks every optimized kernel against the retained
// scalar reference implementations on arbitrary inputs: the optimized
// data plane is only trusted because it is byte-identical to the slow,
// obviously-correct scalar code.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{1}, byte(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, byte(2))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), byte(255))
	f.Add(bytes.Repeat([]byte{0xA5}, 257), byte(29))
	f.Fuzz(func(t *testing.T, data []byte, c byte) {
		// Split the input into a src/dst pair of equal length.
		n := len(data) / 2
		src, base := data[:n], data[n:2*n]

		got, want := append([]byte(nil), base...), append([]byte(nil), base...)
		xorSlice(got, src)
		xorSliceRef(want, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("xorSlice diverges from reference (n=%d)", n)
		}

		tab := makeMulTable(c)
		got, want = make([]byte, n), make([]byte, n)
		tab.mulSlice(src, got)
		mulSliceRef(c, src, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("mulSlice diverges from reference (n=%d c=%d)", n, c)
		}

		got = append([]byte(nil), src...)
		mul2Slice(got)
		mulSliceRef(2, src, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("mul2Slice diverges from reference (n=%d)", n)
		}

		got = append([]byte(nil), base...)
		mul2SliceXor(got, src)
		for i := range want {
			want[i] = gfMul(2, base[i]) ^ src[i]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mul2SliceXor diverges from reference (n=%d)", n)
		}

		// Parity over a small stripe assembled from the fuzz bytes.
		if n >= 2 {
			half := n / 2
			shards := [][]byte{src[:half], base[:half]}
			p, q := make([]byte, half), make([]byte, half)
			parityPQ(shards, p, q)
			rp, rq := make([]byte, half), make([]byte, half)
			refParityPQ(shards, rp, rq)
			if !bytes.Equal(p, rp) || !bytes.Equal(q, rq) {
				t.Fatalf("parityPQ diverges from reference (len=%d)", half)
			}
		}
	})
}

// FuzzEncodeReconstruct round-trips arbitrary data through RAID-6
// encode, knocks out two shards, and requires bit-exact reconstruction.
func FuzzEncodeReconstruct(f *testing.F) {
	f.Add([]byte("hello world, this is a stripe"), uint8(0), uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 64), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, lossA, lossB uint8) {
		if len(data) < 4 {
			return
		}
		shardLen := len(data) / 4
		shards := make([][]byte, 4)
		for i := range shards {
			shards[i] = data[i*shardLen : (i+1)*shardLen]
		}
		s, err := Encode(RAID6, shards)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, len(s.Shards))
		for i, sh := range s.Shards {
			want[i] = append([]byte(nil), sh...)
		}
		a, b := int(lossA)%6, int(lossB)%6
		s.Shards[a] = nil
		s.Shards[b] = nil
		err = s.Reconstruct()
		// Losing two data shards plus parity is impossible here (at most
		// two indices are nil), so reconstruction must succeed.
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(s.Shards[i], want[i]) {
				t.Fatalf("shard %d not restored bit-exact", i)
			}
		}
	})
}
