package raid

import (
	"encoding/binary"
	"unsafe"
)

// Optimized data-plane kernels. The scalar log/antilog kernels in
// gf256.go remain the reference implementation; everything here is
// cross-checked against them byte-for-byte by the property and fuzz
// tests in kernels_test.go / fuzz_test.go.
//
// Three techniques, all pure Go:
//
//   - XOR parity runs over uint64 words (8 bytes per iteration) with a
//     byte tail, instead of byte-at-a-time. Aligned slices are viewed
//     as []uint64 directly; misaligned or short slices fall back to
//     encoding/binary word loads and a byte tail.
//   - Q parity uses Horner's rule over the stripe: Q = D_0 + g·(D_1 +
//     g·(D_2 + ...)), so the inner loop only ever multiplies by the
//     generator g = 2 — a five-op SWAR step on a packed word — instead
//     of a general GF multiply per byte.
//   - General GF multiplies (the reconstruction solve) use per-
//     coefficient split-nibble lookup tables (two 16-entry tables,
//     built once per call) for the byte path, and the tables' power
//     basis for a word-wide bit-broadcast bulk path.

const (
	lsbMask = 0x0101010101010101 // low bit of every byte lane
	msbMask = 0x8080808080808080 // high bit of every byte lane
)

// words views b as machine words when its base is 8-byte aligned (true
// for every heap-allocated buffer the data plane makes; only odd
// subslices miss). Returns nil when the fast path does not apply; the
// caller then takes the encoding/binary fallback.
func words(b []byte) []uint64 {
	if len(b) < 8 || uintptr(unsafe.Pointer(&b[0]))&7 != 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// xorSlice computes dst[i] ^= src[i] word-wide. len(src) must not
// exceed len(dst).
func xorSlice(dst, src []byte) {
	n := len(src)
	i := 0
	if dw, sw := words(dst), words(src); dw != nil && sw != nil {
		sw = sw[:n/8]
		dw = dw[:len(sw)]
		for k := range sw {
			dw[k] ^= sw[k]
		}
		i = n &^ 7
	} else {
		for ; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
		}
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// mul2w multiplies every byte lane of w by the generator g = 2 in
// GF(2^8) mod 0x11D: shift left, then fold the overflow bit back in as
// 0x1D. The (hi>>7)*0x1D product cannot carry across lanes because each
// lane of hi>>7 is 0 or 1 and 0x1D < 0x100.
func mul2w(w uint64) uint64 {
	hi := w & msbMask
	return ((w ^ hi) << 1) ^ ((hi >> 7) * 0x1D)
}

// mul2b is the byte-tail version of mul2w.
func mul2b(b byte) byte {
	if b&0x80 != 0 {
		return (b << 1) ^ 0x1D
	}
	return b << 1
}

// mul2Slice computes q[i] = 2·q[i] — one Horner step with no data shard
// (a skipped or missing member contributes zero).
func mul2Slice(q []byte) {
	n := len(q)
	i := 0
	if qw := words(q); qw != nil {
		for k := range qw {
			qw[k] = mul2w(qw[k])
		}
		i = n &^ 7
	} else {
		for ; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(q[i:], mul2w(binary.LittleEndian.Uint64(q[i:])))
		}
	}
	for ; i < n; i++ {
		q[i] = mul2b(q[i])
	}
}

// mul2SliceXor computes q[i] = 2·q[i] ^ d[i] — one Horner step folding
// in data shard d. len(d) must not exceed len(q).
func mul2SliceXor(q, d []byte) {
	n := len(d)
	i := 0
	if qw, dw := words(q), words(d); qw != nil && dw != nil {
		dw = dw[:n/8]
		qw = qw[:len(dw)]
		for k := range dw {
			qw[k] = mul2w(qw[k]) ^ dw[k]
		}
		i = n &^ 7
	} else {
		for ; i+8 <= n; i += 8 {
			qw := mul2w(binary.LittleEndian.Uint64(q[i:])) ^ binary.LittleEndian.Uint64(d[i:])
			binary.LittleEndian.PutUint64(q[i:], qw)
		}
	}
	for ; i < n; i++ {
		q[i] = mul2b(q[i]) ^ d[i]
	}
}

// parityPQ fills p and q (both len shardLen, contents overwritten) with
// the RAID-6 parities of the equal-length data shards: p = ⊕ D_j,
// q = Σ g^j·D_j, computed by Horner so only mul-by-2 steps are needed.
func parityPQ(data [][]byte, p, q []byte) {
	for i := range p {
		p[i] = 0
		q[i] = 0
	}
	for j := len(data) - 1; j >= 0; j-- {
		d := data[j]
		n := len(d)
		i := 0
		if pw, qw, dw := words(p), words(q), words(d); pw != nil && qw != nil && dw != nil {
			dw = dw[:n/8]
			pw = pw[:len(dw)]
			qw = qw[:len(dw)]
			for k := range dw {
				v := dw[k]
				pw[k] ^= v
				qw[k] = mul2w(qw[k]) ^ v
			}
			i = n &^ 7
		} else {
			for ; i+8 <= n; i += 8 {
				dv := binary.LittleEndian.Uint64(d[i:])
				binary.LittleEndian.PutUint64(p[i:], binary.LittleEndian.Uint64(p[i:])^dv)
				binary.LittleEndian.PutUint64(q[i:], mul2w(binary.LittleEndian.Uint64(q[i:]))^dv)
			}
		}
		for ; i < n; i++ {
			p[i] ^= d[i]
			q[i] = mul2b(q[i]) ^ d[i]
		}
	}
}

// mulTable holds the split-nibble lookup tables for one fixed GF(2^8)
// coefficient c: lo[x] = c·x and hi[x] = c·(x<<4), so c·b =
// lo[b&0xF] ^ hi[b>>4] with two 16-entry lookups and no branches. pow
// caches the bit basis c·2^i (drawn straight from the tables) widened
// for the word-wide bit-broadcast path.
type mulTable struct {
	lo, hi [16]byte
	pow    [8]uint64
}

// makeMulTable builds the split-nibble tables for coefficient c using
// the scalar reference multiply. Built once per Stripe/Reconstruct
// call; 40 table bytes per coefficient.
func makeMulTable(c byte) mulTable {
	var t mulTable
	for x := 0; x < 16; x++ {
		t.lo[x] = gfMul(c, byte(x))
		t.hi[x] = gfMul(c, byte(x<<4))
	}
	for i := 0; i < 4; i++ {
		t.pow[i] = uint64(t.lo[1<<i])
		t.pow[4+i] = uint64(t.hi[1<<i])
	}
	return t
}

// at multiplies a single byte through the split-nibble tables.
func (t *mulTable) at(b byte) byte { return t.lo[b&0x0F] ^ t.hi[b>>4] }

// mulWord multiplies every byte lane of w by the table's coefficient:
// each input bit plane is broadcast to a 0/1 lane mask and scaled by the
// basis product c·2^i; lane products stay below 0x100 so the uint64
// multiplies cannot carry across lanes. The hot loops below inline this
// expression with the basis hoisted into locals — the 8-step chain is
// past the compiler's inlining budget, and a call per word costs more
// than the multiplies (keep the copies in sync).
func (t *mulTable) mulWord(w uint64) uint64 {
	acc := (w & lsbMask) * t.pow[0]
	acc ^= (w >> 1 & lsbMask) * t.pow[1]
	acc ^= (w >> 2 & lsbMask) * t.pow[2]
	acc ^= (w >> 3 & lsbMask) * t.pow[3]
	acc ^= (w >> 4 & lsbMask) * t.pow[4]
	acc ^= (w >> 5 & lsbMask) * t.pow[5]
	acc ^= (w >> 6 & lsbMask) * t.pow[6]
	acc ^= (w >> 7 & lsbMask) * t.pow[7]
	return acc
}

// mulSlice computes dst[i] = c·src[i]. len(src) must not exceed
// len(dst); src and dst may be the same slice.
func (t *mulTable) mulSlice(src, dst []byte) {
	n := len(src)
	i := 0
	if dw, sw := words(dst), words(src); dw != nil && sw != nil {
		sw = sw[:n/8]
		dw = dw[:len(sw)]
		c0, c1, c2, c3 := t.pow[0], t.pow[1], t.pow[2], t.pow[3]
		c4, c5, c6, c7 := t.pow[4], t.pow[5], t.pow[6], t.pow[7]
		for k := range sw {
			w := sw[k]
			acc := (w & lsbMask) * c0
			acc ^= (w >> 1 & lsbMask) * c1
			acc ^= (w >> 2 & lsbMask) * c2
			acc ^= (w >> 3 & lsbMask) * c3
			acc ^= (w >> 4 & lsbMask) * c4
			acc ^= (w >> 5 & lsbMask) * c5
			acc ^= (w >> 6 & lsbMask) * c6
			acc ^= (w >> 7 & lsbMask) * c7
			dw[k] = acc
		}
		i = n &^ 7
	} else {
		for ; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], t.mulWord(binary.LittleEndian.Uint64(src[i:])))
		}
	}
	for ; i < n; i++ {
		dst[i] = t.at(src[i])
	}
}

// solveTwoLoss recovers two lost data shards from the parity residues:
// given pr = D_a ⊕ D_b and qr = g^a·D_a ⊕ g^b·D_b, computes
// dA = (qr ⊕ g^b·pr) / (g^a ⊕ g^b) and dB = pr ⊕ dA in one fused pass.
// The divide is distributed over the xor — dA = cq·qr ⊕ cp·pr with
// cq = 1/(g^a⊕g^b), cp = g^b/(g^a⊕g^b) — so the two table multiplies
// are independent and overlap instead of forming one serial chain.
func solveTwoLoss(pr, qr, dA, dB []byte, a, b int) {
	inv := gfInv(gfPow(a) ^ gfPow(b))
	cq := makeMulTable(inv)
	cp := makeMulTable(gfMul(inv, gfPow(b)))
	n := len(pr)
	i := 0
	if prw, qrw, daw, dbw := words(pr), words(qr), words(dA), words(dB); prw != nil && qrw != nil && daw != nil && dbw != nil {
		prw = prw[:n/8]
		qrw = qrw[:len(prw)]
		daw = daw[:len(prw)]
		dbw = dbw[:len(prw)]
		q0, q1, q2, q3 := cq.pow[0], cq.pow[1], cq.pow[2], cq.pow[3]
		q4, q5, q6, q7 := cq.pow[4], cq.pow[5], cq.pow[6], cq.pow[7]
		p0, p1, p2, p3 := cp.pow[0], cp.pow[1], cp.pow[2], cp.pow[3]
		p4, p5, p6, p7 := cp.pow[4], cp.pow[5], cp.pow[6], cp.pow[7]
		for k := range prw {
			pv, qv := prw[k], qrw[k]
			da := (qv & lsbMask) * q0
			da ^= (qv >> 1 & lsbMask) * q1
			da ^= (qv >> 2 & lsbMask) * q2
			da ^= (qv >> 3 & lsbMask) * q3
			da ^= (qv >> 4 & lsbMask) * q4
			da ^= (qv >> 5 & lsbMask) * q5
			da ^= (qv >> 6 & lsbMask) * q6
			da ^= (qv >> 7 & lsbMask) * q7
			da ^= (pv & lsbMask) * p0
			da ^= (pv >> 1 & lsbMask) * p1
			da ^= (pv >> 2 & lsbMask) * p2
			da ^= (pv >> 3 & lsbMask) * p3
			da ^= (pv >> 4 & lsbMask) * p4
			da ^= (pv >> 5 & lsbMask) * p5
			da ^= (pv >> 6 & lsbMask) * p6
			da ^= (pv >> 7 & lsbMask) * p7
			daw[k] = da
			dbw[k] = pv ^ da
		}
		i = n &^ 7
	} else {
		for ; i+8 <= n; i += 8 {
			pv := binary.LittleEndian.Uint64(pr[i:])
			qv := binary.LittleEndian.Uint64(qr[i:])
			da := cq.mulWord(qv) ^ cp.mulWord(pv)
			binary.LittleEndian.PutUint64(dA[i:], da)
			binary.LittleEndian.PutUint64(dB[i:], pv^da)
		}
	}
	for ; i < n; i++ {
		da := cq.at(qr[i]) ^ cp.at(pr[i])
		dA[i] = da
		dB[i] = pr[i] ^ da
	}
}
