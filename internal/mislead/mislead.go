// Package mislead implements the paper's misleading-data mechanism: "the
// Cloud Data Distributor may add misleading data into chunks depending on
// the demand of clients. The positions of misleading data bytes are also
// maintained by the distributor and these misleading bytes are removed
// while providing the chunks to the clients." (§IV-A, §VII-D)
//
// Injection is deterministic given a seed, so the distributor only needs
// to persist the positions (as the paper's Chunk Table does); Strip
// inverts Inject exactly.
package mislead

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
)

// Injection describes misleading bytes added to one chunk: the indices
// into the *inflated* payload that hold decoy bytes. This is the "M"
// column of the paper's Chunk Table.
//
// The positions are held the way they are persisted: one uvarint per
// decoy giving the number of kept bytes between it and the previous
// decoy (position − previous position − 1, with −1 before the first).
// A gap cannot be negative, so any well-formed gap list is strictly
// increasing; a typical decoy costs one byte where a []int cost eight.
// The zero value is "no decoys".
type Injection struct {
	count int
	gaps  []byte
}

// Count returns the number of injected bytes.
func (inj Injection) Count() int { return inj.count }

// Encoded returns the gap list for persistence. The slice aliases the
// Injection and must not be modified; FromEncoded is its inverse.
func (inj Injection) Encoded() []byte { return inj.gaps }

// FromEncoded adopts a persisted gap list (copying it, so the source
// buffer may be reused). It checks only that enc is a sequence of whole
// uvarints; Validate bounds the positions against a payload.
func FromEncoded(enc []byte) (Injection, error) {
	if len(enc) == 0 {
		return Injection{}, nil
	}
	if enc[len(enc)-1] >= 0x80 {
		return Injection{}, fmt.Errorf("mislead: encoded positions end inside a varint")
	}
	count := 0
	for _, b := range enc {
		if b < 0x80 {
			count++
		}
	}
	return Injection{count: count, gaps: append([]byte(nil), enc...)}, nil
}

// FromPositions builds an Injection from absolute decoy positions, which
// must be non-negative and strictly increasing.
func FromPositions(positions []int) (Injection, error) {
	if len(positions) == 0 {
		return Injection{}, nil
	}
	gaps := make([]byte, 0, len(positions)+len(positions)/8+8)
	prev := -1
	for _, p := range positions {
		if p <= prev {
			return Injection{}, fmt.Errorf("mislead: positions not strictly increasing at %d", p)
		}
		gaps = binary.AppendUvarint(gaps, uint64(p-prev-1))
		prev = p
	}
	return Injection{count: len(positions), gaps: gaps}, nil
}

// Positions decodes the absolute decoy positions, nil when there are
// none. A malformed gap list (see Validate) decodes as far as it is
// well formed.
func (inj Injection) Positions() []int { return inj.First(inj.count) }

// First decodes at most n leading positions — what a table view prints
// — without expanding the whole list.
func (inj Injection) First(n int) []int {
	// Every position takes at least one encoded byte, which bounds the
	// allocation even under a forged count.
	n = min(n, inj.count, len(inj.gaps))
	if n <= 0 {
		return nil
	}
	out := make([]int, 0, n)
	pos := -1
	for b := inj.gaps; len(b) > 0 && len(out) < n; {
		gap, w := binary.Uvarint(b)
		if w <= 0 {
			break
		}
		b = b[w:]
		pos += int(gap) + 1
		out = append(out, pos)
	}
	return out
}

// Validate checks that the gap list is well formed, holds exactly Count
// positions, and that every position lies within the inflated length.
// Sortedness and uniqueness need no check: gaps cannot be negative.
func (inj Injection) Validate(inflatedLen int) error {
	_, err := inj.walk(inflatedLen, nil, nil)
	return err
}

// walk is the one decoder of the gap list: it checks what Validate
// promises and, when inflated is given (a nil payload has nothing to
// copy either way), appends the kept bytes between the decoys to dst as
// it goes — each gap is a run of kept bytes followed by one skipped
// decoy. Checking inside the copying pass keeps StripTo to a single walk.
//
// Copying, stripRuns takes almost every gap: those of one byte away
// from either end. It hands back to walk's own step, the general one,
// at a varint gap, within 16 bytes of the end of inflated or of
// cap(dst), and at any gap its bounds refuse; that step appends the run.
// Every check that can fail, and every error, is in the general step,
// so a hostile list is judged exactly as it always was.
func (inj Injection) walk(inflatedLen int, dst, inflated []byte) ([]byte, error) {
	if inj.count < 0 || inj.count > len(inj.gaps) {
		return nil, fmt.Errorf("mislead: %d positions claimed by %d encoded bytes", inj.count, len(inj.gaps))
	}
	from, seen := 0, 0 // from: first payload index after the previous decoy
	for b := inj.gaps; len(b) > 0; seen++ {
		if inflated != nil {
			var rest []byte
			dst, rest, from = stripRuns(dst, inflated, b, from)
			seen += len(b) - len(rest) // one byte per gap it took
			if b = rest; len(b) == 0 {
				break
			}
		}
		// Gaps below 128 — all but a few per chunk at any useful decoy
		// fraction — are one byte and skip the varint loop.
		gap, w := uint64(b[0]), 1
		if gap >= 0x80 {
			if gap, w = binary.Uvarint(b); w <= 0 {
				return nil, fmt.Errorf("mislead: malformed position varint at decoy %d", seen)
			}
		}
		b = b[w:]
		// Compare before adding: a hostile gap near 2^64 must not wrap.
		if gap >= uint64(inflatedLen-from) {
			return nil, fmt.Errorf("mislead: decoy %d outside inflated payload of %d bytes", seen, inflatedLen)
		}
		decoy := from + int(gap)
		if inflated != nil {
			dst = append(dst, inflated[from:decoy]...)
		}
		from = decoy + 1
	}
	if seen != inj.count {
		return nil, fmt.Errorf("mislead: %d positions encoded, %d claimed", seen, inj.count)
	}
	if inflated != nil {
		dst = append(dst, inflated[from:]...)
	}
	return dst, nil
}

// stripRuns is walk's fast loop: it strips the runs of one-byte gaps
// while a 16-byte store fits on both sides — from+17 bytes of inflated,
// so the decoy lies inside too, and 16 bytes of dst's spare capacity —
// and returns dst, the gaps it did not take and the index after the
// last decoy it skipped. At a 0.25 decoy rate a run averages four
// bytes, where a memmove call costs more in size dispatch than in
// copying, so a run of up to 16 bytes is one fixed 16-byte store, after
// which dst grows by the run alone; the excess is overwritten by the
// runs that follow. A run of 17 to 127 bytes is copied once its decoy
// and its bytes are checked to fit. Anything else is walk's to judge.
//
// It is a function of its own so that from, dst's length and the slice
// headers can stay in registers; in walk's larger body the compiler
// reloads them from the stack on every gap. The store never reaches
// past cap(dst) — the caller's neighbouring bytes may be another
// goroutine's segment — nor reads past the end of inflated.
func stripRuns(dst, inflated, gaps []byte, from int) ([]byte, []byte, int) {
	n, spare := len(dst), dst[:cap(dst)]
	i := 0
	for ; i < len(gaps) && from+17 <= len(inflated) && n+16 <= len(spare); i++ {
		gap := int(gaps[i])
		if gap <= 16 {
			*(*[16]byte)(spare[n:]) = *(*[16]byte)(inflated[from:])
		} else if gap < 0x80 && from+gap < len(inflated) && n+gap <= len(spare) {
			copy(spare[n:], inflated[from:from+gap])
		} else {
			break
		}
		n += gap
		from += gap + 1
	}
	return dst[:n], gaps[i:], from
}

// InflatedLen is the length Inject produces for n payload bytes: the
// caller of InjectTo sizes its buffer with it.
func InflatedLen(n int, fraction float64) int {
	return n + int(float64(n)*fraction)
}

// Inject inserts decoy bytes into data so that the decoy content blends in
// statistically (bytes are sampled from the payload's own distribution,
// making the decoys hard to filter before mining). fraction ∈ [0, 1] is
// the ratio of decoy bytes to original bytes. The returned Injection
// records the decoy positions in the inflated payload.
//
// The draws continue rng's sequence: Inject reads the next 607 outputs
// of rng into a Stream on its stack and runs InjectTo on that, so when
// rng's source is math/rand's (rand.NewSource) the output is what
// drawing from rng directly would give. rng advances by exactly 607
// draws whatever the payload — a caller that injects many chunks holds
// one Stream and calls InjectTo instead. A nil rng is rand.NewSource(1).
func Inject(data []byte, fraction float64, rng *rand.Rand) ([]byte, Injection, error) {
	var s Stream
	if rng == nil {
		s.Seed(1)
	} else {
		for i := range s.buf {
			s.buf[i] = rng.Uint64()
		}
	}
	return InjectTo(nil, data, fraction, &s)
}

// InjectTo is Inject appending the inflated payload to dst — typically a
// zero-length slice of a pooled buffer of InflatedLen bytes, so the bulk
// write path inflates without allocating. dst must not overlap data.
//
// The decoy positions are a uniform random subset of the inflated
// payload, drawn by Floyd's algorithm into a bitmap: one draw per decoy,
// no permutation of the whole payload. One walk over the bitmap then
// meets the positions in order, copies the kept bytes between them in
// bulk, draws each decoy byte and emits its gap — so nothing is sorted
// and no per-byte flag is tested. Both draws are below's, inlined: read
// straight from s's block with the cursor in a local, they leave the
// loop only for a refill and for the rare draw the reduction rejects.
// The draw sequence, and with it the output, is a pure function of s's
// state, and s is left just past the last draw.
func InjectTo(dst, data []byte, fraction float64, s *Stream) ([]byte, Injection, error) {
	if fraction < 0 || fraction > 1 {
		return nil, Injection{}, fmt.Errorf("mislead: fraction %v outside [0,1]", fraction)
	}
	nDecoys := InflatedLen(len(data), fraction) - len(data)
	if nDecoys == 0 {
		return append(dst, data...), Injection{}, nil
	}
	inflatedLen := len(data) + nDecoys

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	words := (inflatedLen + 63) / 64
	if cap(sc.bitmap) < words {
		sc.bitmap = make([]uint64, words)
	}
	bitmap := sc.bitmap[:words]
	clear(bitmap)
	// Both loops draw by below, inlined, with the cursor in next. Past 32
	// bits every draw is below's general case.
	huge := inflatedLen > math.MaxUint32
	next := s.next
	for j := inflatedLen - nDecoys; j < inflatedLen; j++ {
		if next == streamLen {
			s.refill()
			next = 0
		}
		var t int
		if prod := (s.buf[next] >> 31 & math.MaxUint32) * uint64(j+1); uint32(prod) >= uint32(j+1) && !huge {
			t, next = int(prod>>32), next+1
		} else {
			t, next = s.below(next, j+1)
		}
		// A taken t becomes j, which cannot be taken yet: every earlier
		// draw was below it. Collisions are too frequent and too random
		// to predict, so the choice is a mask, not a branch.
		taken := int(bitmap[t>>6] >> (t & 63) & 1)
		t ^= (t ^ j) & -taken
		bitmap[t>>6] |= 1 << (t & 63)
	}

	base := len(dst)
	if cap(dst)-base < inflatedLen {
		grown := make([]byte, base, base+inflatedLen)
		copy(grown, dst)
		dst = grown
	}
	out := dst[base : base+inflatedLen]
	// One byte per gap below 128; a sparse injection's mean gap says how
	// many bytes its typical varint takes. The slack absorbs the spread.
	gapBytes := (bits.Len(uint(inflatedLen/nDecoys)) + 6) / 7
	gaps := make([]byte, 0, nDecoys*gapBytes+nDecoys/8+8)
	src, prev := 0, -1
	for w, word := range bitmap {
		for ; word != 0; word &= word - 1 {
			p := w<<6 + bits.TrailingZeros64(word)
			kept := p - prev - 1
			// Most runs are a few bytes, where a memmove call costs more
			// in size dispatch than in copying. Away from either end, move
			// a fixed 16 bytes instead: the excess lands on out[p:], which
			// this and the following iterations overwrite.
			if kept <= 16 && src+16 <= len(data) && prev+17 <= inflatedLen {
				*(*[16]byte)(out[prev+1:]) = *(*[16]byte)(data[src:])
			} else {
				copy(out[prev+1:p], data[src:src+kept])
			}
			src += kept
			if next == streamLen {
				s.refill()
				next = 0
			}
			var at int
			if prod := (s.buf[next] >> 31 & math.MaxUint32) * uint64(len(data)); uint32(prod) >= uint32(len(data)) && !huge {
				at, next = int(prod>>32), next+1
			} else {
				at, next = s.below(next, len(data))
			}
			out[p] = data[at]
			if kept < 0x80 {
				gaps = append(gaps, byte(kept))
			} else {
				gaps = binary.AppendUvarint(gaps, uint64(kept))
			}
			prev = p
		}
	}
	s.next = next
	copy(out[prev+1:], data[src:])
	return dst[:base+inflatedLen], Injection{count: nDecoys, gaps: gaps}, nil
}

// below returns a uniform integer in [0, n), drawn from s at cursor next,
// and the cursor after it, which may be streamLen. The draw is
// rand.Rand.Uint32's, the high 32 of a 63-bit output, reduced by
// multiply-shift (Lemire 2019, the one math/rand keeps private for
// Shuffle) where rand.Intn would spend two integer divisions; a draw
// landing in the sliver that would bias the result is redrawn, so the
// outcome is exactly uniform. A bound past 32 bits takes rand.Intn's own
// method. InjectTo inlines the common case, an accepted first draw, and
// calls below, which is too large to inline, for the rest.
func (s *Stream) below(next, n int) (int, int) {
	s.next = next
	if n > math.MaxUint32 {
		// rand.Rand.Int63n, which rand.Intn is at this size.
		if n&(n-1) == 0 {
			return int(s.Int63() & int64(n-1)), s.next
		}
		max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
		v := s.Int63()
		for v > max {
			v = s.Int63()
		}
		return int(v % int64(n)), s.next
	}
	bound := uint32(n)
	prod := uint64(uint32(s.Int63()>>31)) * uint64(bound)
	if low := uint32(prod); low < bound {
		for reject := -bound % bound; low < reject; low = uint32(prod) {
			prod = uint64(uint32(s.Int63()>>31)) * uint64(bound)
		}
	}
	return int(prod >> 32), s.next
}

// scratch is the per-call sampling bitmap, pooled by pointer so that
// borrowing and returning it allocates nothing.
type scratch struct{ bitmap []uint64 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Strip removes the injected bytes, recovering the original payload.
// The returned slice has exact capacity — it retains nothing beyond the
// recovered bytes.
func Strip(inflated []byte, inj Injection) ([]byte, error) {
	if inj.count < 0 || inj.count > len(inflated) {
		return nil, fmt.Errorf("mislead: %d decoys claimed in a payload of %d bytes", inj.count, len(inflated))
	}
	out := make([]byte, 0, len(inflated)-inj.count)
	return StripTo(out, inflated, inj)
}

// StripTo is Strip appending into dst — typically a zero-length slice of
// a caller-owned buffer (e.g. one segment of a preallocated whole-file
// buffer), so bulk reads recover chunks in place without intermediate
// allocations. Returns the extended slice; if dst lacks capacity the
// usual append reallocation applies. dst must not overlap inflated: runs
// are moved 16 bytes at a time, so a store may overwrite spare capacity
// up to cap(dst) beyond the bytes returned — never past it.
//
// The gap list is walked directly and once (see walk). On error dst's
// spare capacity may already hold a partial copy; its length is as given.
func StripTo(dst, inflated []byte, inj Injection) ([]byte, error) {
	return inj.walk(len(inflated), dst, inflated)
}

// InjectLines inserts whole misleading records (lines) into line-oriented
// data such as the CSV files the evaluation uses — this is what actually
// corrupts a mining run, since a mining attacker parses records, not
// bytes. decoys are full fabricated lines; the returned Injection records
// the byte positions of the inserted regions so Strip still inverts it.
func InjectLines(data []byte, decoyLines [][]byte, rng *rand.Rand) ([]byte, Injection, error) {
	if rng == nil {
		rng = rand.New(rand.NewSource(2))
	}
	if len(decoyLines) == 0 {
		out := make([]byte, len(data))
		copy(out, data)
		return out, Injection{}, nil
	}
	// Find line-start offsets in the original data.
	starts := []int{0}
	for i, b := range data {
		if b == '\n' && i+1 < len(data) {
			starts = append(starts, i+1)
		}
	}
	// Choose an insertion line-start for each decoy.
	insertAt := make([]int, len(decoyLines))
	for i := range insertAt {
		insertAt[i] = starts[rng.Intn(len(starts))]
	}
	sort.Ints(insertAt)

	// A decoy line is a run of adjacent positions: its first byte carries
	// the gap back to the previous decoy, every later byte a gap of 0.
	var out, gaps []byte
	count, prev := 0, -1
	decoy := func(b byte) {
		gaps = binary.AppendUvarint(gaps, uint64(len(out)-prev-1))
		prev = len(out)
		out = append(out, b)
		count++
	}
	di := 0
	for off := 0; off <= len(data); off++ {
		for di < len(insertAt) && insertAt[di] == off {
			line := decoyLines[di]
			for _, b := range line {
				decoy(b)
			}
			if len(line) == 0 || line[len(line)-1] != '\n' {
				decoy('\n')
			}
			di++
		}
		if off < len(data) {
			out = append(out, data[off])
		}
	}
	return out, Injection{count: count, gaps: gaps}, nil
}

// Overhead reports the storage overhead ratio of an injection relative to
// the original size (0.25 means 25% extra bytes).
func Overhead(originalLen int, inj Injection) float64 {
	if originalLen == 0 {
		return 0
	}
	return float64(inj.Count()) / float64(originalLen)
}
