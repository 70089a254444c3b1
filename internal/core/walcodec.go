package core

import (
	"bytes"
	"fmt"
	"sort"

	"encoding/binary"

	"repro/internal/mislead"
	"repro/internal/privacy"
)

// Hand-rolled binary codec for WAL records and checkpoint state. Every
// frame must be self-contained (recovery decodes each record
// independently, and the torn-tail scan may stop at any frame boundary),
// which rules out a streaming gob encoder — and a fresh gob encoder per
// record re-transmits full type descriptors, costing more than the
// record itself on the upload hot path. This codec writes fields in a
// fixed order with varint integers instead: one small allocation per
// record and no reflection.
//
// Each layout is written once, as a walk over its fields with a walCodec
// that either encodes or decodes: a primitive takes a pointer to the
// field and appends its value or fills it in. The writer and the reader
// therefore cannot disagree on the order of the fields.
//
// Layout rules:
//   - every payload starts with a version byte (walCodecVersion; see
//     walCodecV1 for the one older layout still read),
//   - unsigned fields are uvarints, signed ones zigzag varints
//     (SPIndex/StripeID use -1 as "none"),
//   - strings are length-prefixed, never nil,
//   - slices and maps are prefixed with length+1 so nil (0) and empty
//     (1) round-trip distinctly — recovered tables must DeepEqual the
//     tables a live distributor would hold,
//   - map entries are written in sorted key order so encoding a given
//     state is deterministic,
//   - a chunk's misleading-byte positions are one length-prefixed blob:
//     the gap list mislead.Injection already holds (≈1 byte per decoy),
//     copied in and out whole. No length+1 here — "no decoys" has a
//     single representation, the empty blob.
//
// Decoding is strict: claimed lengths are bounds-checked against the
// remaining input before allocating, and trailing bytes after the last
// field are corruption, not slack.

// walCodecVersion identifies this layout and is the only one written.
// walCodecV1 differs in a single field — a chunk's misleading-byte
// positions were a length+1-prefixed list of absolute zigzag varints,
// ~2 bytes per decoy and one decode call each — and is still read, so a
// directory written before the change recovers; the first checkpoint
// after that rewrites everything as v2. A decoder seeing any other value
// fails loudly rather than misparse a frame from a different build.
const (
	walCodecVersion = 2
	walCodecV1      = 1
)

// walCodec walks a layout in one direction. Encoding, b is the frame
// being appended to; decoding, b is the input not yet consumed, v the
// frame's version, and the first malformed field sets err and leaves
// every later field zero, so callers check err once at the end.
//
// A primitive encodes inline and calls out to the decode halves at the
// end of the file. A record's encode runs under d.mu on every upload, so
// its walk keeps c on the stack and appends to b in place (see seq and
// putUvarint).
type walCodec struct {
	b   []byte
	dec bool
	v   byte
	err error
}

// newWALEncoder starts a payload in a buffer presized from the caller's
// estimate, so a multi-hundred-chunk record is built without regrowing
// (and recopying) under d.mu.
func newWALEncoder(sizeHint int) walCodec {
	return walCodec{b: append(make([]byte, 0, sizeHint), walCodecVersion)}
}

// newWALDecoder starts reading data, consuming and checking its leading
// version byte.
func newWALDecoder(data []byte) walCodec {
	c := walCodec{b: data, dec: true}
	switch {
	case len(data) == 0:
		c.fail("walcodec: empty payload")
	case data[0] != walCodecVersion && data[0] != walCodecV1:
		c.fail("walcodec: unknown version %d (want %d or %d)", data[0], walCodecVersion, walCodecV1)
	default:
		c.v = data[0]
		c.b = data[1:]
	}
	return c
}

// chunksSizeHint estimates the encoded size of cs: the variable-length
// fields exactly, the ~20 varints and the checksum as a flat allowance.
func chunksSizeHint(cs []chunkEntry) int {
	n := 0
	for i := range cs {
		c := &cs[i]
		n += 96 + len(c.VirtualID) + len(c.Mislead.Encoded()) + len(c.Client) + len(c.Filename) +
			len(c.EncKey) + len(c.SnapVID) + 24*len(c.Mirrors)
	}
	return n
}

// stripesSizeHint is chunksSizeHint for stripe rows.
func stripesSizeHint(ss []stripeEntry) int {
	n := 0
	for i := range ss {
		n += 16 + 3*len(ss[i].Members) + 24*len(ss[i].Parity)
	}
	return n
}

func (c *walCodec) u64(p *uint64) {
	if c.dec {
		*p = c.uvarint()
		return
	}
	c.putUvarint(*p)
}

// i walks a signed field; privacy.Level and raid.Level pass as (*int).
func (c *walCodec) i(p *int) {
	if c.dec {
		*p = c.varint()
		return
	}
	c.putUvarint(uint64(*p)<<1 ^ uint64(*p>>63)) // zigzag, as binary.PutVarint
}

func (c *walCodec) str(p *string) {
	if c.dec {
		*p = string(c.take(c.uvarint()))
		return
	}
	c.putUvarint(uint64(len(*p)))
	c.b = append(c.b, *p...)
}

// putUvarint appends v a byte at a time, as binary.AppendUvarint does.
// A one-byte append writes c.b's pointer back only when it grows the
// buffer; assigning c.b the slice AppendUvarint returns would store it,
// and pay a GC write barrier while the collector runs, on every field.
func (c *walCodec) putUvarint(v uint64) {
	for v >= 0x80 {
		c.b = append(c.b, byte(v)|0x80)
		v >>= 7
	}
	c.b = append(c.b, byte(v))
}

// fixed walks a byte array of known size, with no length prefix.
func (c *walCodec) fixed(p []byte) {
	if c.dec {
		copy(p, c.take(uint64(len(p))))
		return
	}
	c.b = append(c.b, p...)
}

// blob walks a nil-distinguishing byte slice. A decoded blob is a copy:
// the frame belongs to the WAL reader.
func (c *walCodec) blob(p *[]byte) {
	if c.dec {
		if n := c.uvarint(); n > 0 {
			*p = bytes.Clone(c.take(n - 1))
		}
		return
	}
	if *p == nil {
		c.b = append(c.b, 0)
		return
	}
	c.putUvarint(uint64(len(*p)) + 1)
	c.b = append(c.b, *p...)
}

// seq walks a slice's length+1 prefix, allocating *s when decoding, and
// returns the number of elements for the caller to walk. The caller's
// loop calls each element's layout directly: passing c through a func
// value would move it to the heap, and a write barrier would then guard
// every append to c.b.
//
// Every element occupies at least one input byte, so a decoded count
// larger than the remaining input is corruption, refused before make.
func seq[T any](c *walCodec, s *[]T) int {
	if !c.dec {
		if *s == nil {
			c.b = append(c.b, 0)
			return 0
		}
		c.putUvarint(uint64(len(*s)) + 1)
	} else if n := c.uvarint(); n > uint64(len(c.b))+1 {
		c.fail("walcodec: collection of %d elements exceeds %d remaining bytes", n-1, len(c.b))
	} else if n > 0 {
		*s = make([]T, n-1)
	}
	return len(*s)
}

func (c *walCodec) ints(s *[]int) {
	for i := range seq(c, s) {
		c.i(&(*s)[i])
	}
}

func (c *walCodec) parities(s *[]parityShard) {
	for i := range seq(c, s) {
		c.parity(&(*s)[i])
	}
}

// table walks a string-keyed map as a seq of (key, value) pairs in
// sorted key order. val walks one value: it is handed the value to
// encode, or a zero V to fill, and returns it.
func table[V any](c *walCodec, m *map[string]V, val func(*walCodec, V) V) {
	var keys []string
	if !c.dec && *m != nil {
		keys = make([]string, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	}
	if seq(c, &keys); c.dec && keys != nil {
		*m = make(map[string]V, len(keys))
	}
	for _, k := range keys {
		c.str(&k)
		if v := val(c, (*m)[k]); c.dec {
			(*m)[k] = v
		}
	}
}

// mislead walks a chunk's misleading-byte positions, the one field
// whose layout depends on the codec version: v2's gap blob, or on read
// v1's list of absolute positions.
func (c *walCodec) mislead(inj *mislead.Injection) {
	if !c.dec {
		gaps := inj.Encoded()
		c.putUvarint(uint64(len(gaps)))
		c.b = append(c.b, gaps...)
		return
	}
	var err error
	if c.v == walCodecV1 {
		var positions []int
		c.ints(&positions)
		*inj, err = mislead.FromPositions(positions)
	} else {
		*inj, err = mislead.FromEncoded(c.take(c.uvarint()))
	}
	if err != nil {
		c.fail("walcodec: %v", err)
	}
}

func (c *walCodec) chunk(e *chunkEntry) {
	c.str(&e.VirtualID)
	c.i((*int)(&e.PL))
	c.i(&e.CPIndex)
	c.i(&e.SPIndex)
	c.mislead(&e.Mislead)
	c.str(&e.Client)
	c.str(&e.Filename)
	c.i(&e.Serial)
	c.i(&e.PayloadLen)
	c.i(&e.DataLen)
	c.fixed(e.Sum[:])
	c.blob(&e.EncKey)
	c.i(&e.StripeID)
	c.str(&e.SnapVID)
	for i := range seq(c, &e.Mirrors) {
		c.parity((*parityShard)(&e.Mirrors[i])) // a mirror has a parity shard's fields
	}
}

func (c *walCodec) chunks(s *[]chunkEntry) {
	for i := range seq(c, s) {
		c.chunk(&(*s)[i])
	}
}

func (c *walCodec) parity(p *parityShard) {
	c.str(&p.VirtualID)
	c.i(&p.CPIndex)
}

func (c *walCodec) stripe(s *stripeEntry) {
	c.i(&s.ID)
	c.i((*int)(&s.Level))
	c.i(&s.ShardLen)
	c.ints(&s.Members)
	c.parities(&s.Parity)
}

func (c *walCodec) stripes(s *[]stripeEntry) {
	for i := range seq(c, s) {
		c.stripe(&(*s)[i])
	}
}

// record walks one commit record. Every field is written whatever the
// op; varints make the unset ones cost a byte each.
func (c *walCodec) record(r *walRecord) {
	c.str(&r.Op)
	c.u64(&r.Gen)
	c.u64(&r.FIDSeq)
	c.u64(&r.EncNonce)
	c.u64(&r.VIDCtr)
	c.str(&r.Client)
	c.str(&r.Filename)
	c.str(&r.PassHash)
	c.i((*int)(&r.PassPL))
	c.u64(&r.FID)
	c.i((*int)(&r.PL))
	c.i((*int)(&r.Raid))
	c.i(&r.ChunksBase)
	c.i(&r.StripesBase)
	c.chunks(&r.Chunks)
	c.stripes(&r.Stripes)
	c.ints(&r.ChunkIdx)
	c.i(&r.Serial)
	c.i(&r.StripeID)
	c.chunk(&r.Chunk)
	c.parities(&r.Parity)
	c.ints(&r.Members)
	c.i(&r.ShardLen)
	c.i(&r.TableIdx)
	c.i(&r.SubIdx)
	c.i(&r.NewProv)
	c.str(&r.NewVID)
	c.u64(&r.FileGen)
	c.u64(&r.ClientGen)
}

// state walks a checkpoint snapshot of the full tables.
func (c *walCodec) state(st *walState) {
	table(c, &st.Clients, func(c *walCodec, ce *clientEntry) *clientEntry {
		if c.dec {
			ce = new(clientEntry)
		}
		c.str(&ce.Name)
		table(c, &ce.Passwords, func(c *walCodec, pl privacy.Level) privacy.Level {
			c.i((*int)(&pl))
			return pl
		})
		table(c, &ce.Files, func(c *walCodec, fe *fileEntry) *fileEntry {
			if c.dec {
				fe = new(fileEntry)
			}
			c.str(&fe.Filename)
			c.i((*int)(&fe.PL))
			c.u64(&fe.FID)
			c.ints(&fe.ChunkIdx)
			c.i((*int)(&fe.Raid))
			c.u64(&fe.Gen)
			return fe
		})
		c.i(&ce.Count)
		c.u64(&ce.Gen)
		return ce
	})
	c.chunks(&st.Chunks)
	c.stripes(&st.Stripes)
	c.u64(&st.Gen)
	c.u64(&st.FIDSeq)
	c.u64(&st.EncNonce)
	c.u64(&st.VIDCtr)
}

// encodeWALRecord serializes one commit record.
func encodeWALRecord(rec *walRecord) []byte {
	c := newWALEncoder(192 + len(rec.Client) + len(rec.Filename) + chunksSizeHint(rec.Chunks) +
		stripesSizeHint(rec.Stripes) + 3*len(rec.ChunkIdx) + len(rec.Chunk.Mislead.Encoded()))
	c.record(rec)
	return c.b
}

// decodeWALRecord parses one commit record, the exact inverse of
// encodeWALRecord.
func decodeWALRecord(data []byte, rec *walRecord) error {
	c := newWALDecoder(data)
	c.record(rec)
	return c.done()
}

// encodeWALState serializes a checkpoint snapshot of the full tables.
func encodeWALState(st *walState) []byte {
	c := newWALEncoder(1024 + chunksSizeHint(st.Chunks) + stripesSizeHint(st.Stripes))
	c.state(st)
	return c.b
}

// decodeWALState parses a checkpoint snapshot, the exact inverse of
// encodeWALState.
func decodeWALState(data []byte, st *walState) error {
	c := newWALDecoder(data)
	c.state(st)
	return c.done()
}

// The decode halves of the primitives.

// fail records the first error and drops the rest of the input, so
// every later field reads as truncated and stays zero.
func (c *walCodec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	c.b = nil
}

func (c *walCodec) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("walcodec: truncated uvarint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *walCodec) varint() int {
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail("walcodec: truncated varint")
		return 0
	}
	c.b = c.b[n:]
	return int(v)
}

// take consumes exactly n bytes, failing before any allocation when the
// input is shorter than claimed.
func (c *walCodec) take(n uint64) []byte {
	if n > uint64(len(c.b)) {
		c.fail("walcodec: length %d exceeds %d remaining bytes", n, len(c.b))
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// done fails when decoded input remains — a well-formed payload is
// consumed exactly.
func (c *walCodec) done() error {
	if c.err == nil && len(c.b) != 0 {
		c.fail("walcodec: %d trailing bytes after the last field", len(c.b))
	}
	return c.err
}
