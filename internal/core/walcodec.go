package core

import (
	"fmt"
	"sort"

	"encoding/binary"

	"repro/internal/mislead"
	"repro/internal/privacy"
	"repro/internal/raid"
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

type walEnc struct{ b []byte }

// newWALEnc starts a payload in a buffer presized from the caller's
// estimate, so a multi-hundred-chunk record is built without regrowing
// (and recopying) under d.mu.
func newWALEnc(sizeHint int) *walEnc {
	e := &walEnc{b: make([]byte, 0, sizeHint)}
	e.b = append(e.b, walCodecVersion)
	return e
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

func (e *walEnc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *walEnc) i(v int)      { e.b = binary.AppendVarint(e.b, int64(v)) }

func (e *walEnc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// blob writes a nil-distinguishing byte slice.
func (e *walEnc) blob(p []byte) {
	if p == nil {
		e.u64(0)
		return
	}
	e.u64(uint64(len(p)) + 1)
	e.b = append(e.b, p...)
}

// ints writes a nil-distinguishing []int.
func (e *walEnc) ints(v []int) {
	if v == nil {
		e.u64(0)
		return
	}
	e.u64(uint64(len(v)) + 1)
	for _, x := range v {
		e.i(x)
	}
}

func (e *walEnc) chunk(c *chunkEntry) {
	e.str(c.VirtualID)
	e.i(int(c.PL))
	e.i(c.CPIndex)
	e.i(c.SPIndex)
	e.u64(uint64(len(c.Mislead.Encoded())))
	e.b = append(e.b, c.Mislead.Encoded()...)
	e.str(c.Client)
	e.str(c.Filename)
	e.i(c.Serial)
	e.i(c.PayloadLen)
	e.i(c.DataLen)
	e.b = append(e.b, c.Sum[:]...)
	e.blob(c.EncKey)
	e.i(c.StripeID)
	e.str(c.SnapVID)
	if c.Mirrors == nil {
		e.u64(0)
	} else {
		e.u64(uint64(len(c.Mirrors)) + 1)
		for _, m := range c.Mirrors {
			e.str(m.VirtualID)
			e.i(m.CPIndex)
		}
	}
}

func (e *walEnc) chunks(cs []chunkEntry) {
	if cs == nil {
		e.u64(0)
		return
	}
	e.u64(uint64(len(cs)) + 1)
	for i := range cs {
		e.chunk(&cs[i])
	}
}

func (e *walEnc) parity(ps []parityShard) {
	if ps == nil {
		e.u64(0)
		return
	}
	e.u64(uint64(len(ps)) + 1)
	for _, p := range ps {
		e.str(p.VirtualID)
		e.i(p.CPIndex)
	}
}

func (e *walEnc) stripes(ss []stripeEntry) {
	if ss == nil {
		e.u64(0)
		return
	}
	e.u64(uint64(len(ss)) + 1)
	for i := range ss {
		s := &ss[i]
		e.i(s.ID)
		e.i(int(s.Level))
		e.i(s.ShardLen)
		e.ints(s.Members)
		e.parity(s.Parity)
	}
}

// encodeWALRecord serializes one commit record. All fields are written
// in fixed order; varints make the unset ones cost a byte each.
func encodeWALRecord(rec *walRecord) []byte {
	e := newWALEnc(192 + len(rec.Client) + len(rec.Filename) + chunksSizeHint(rec.Chunks) +
		stripesSizeHint(rec.Stripes) + 3*len(rec.ChunkIdx) + len(rec.Chunk.Mislead.Encoded()))
	e.str(rec.Op)
	e.u64(rec.Gen)
	e.u64(rec.FIDSeq)
	e.u64(rec.EncNonce)
	e.u64(rec.VIDCtr)
	e.str(rec.Client)
	e.str(rec.Filename)
	e.str(rec.PassHash)
	e.i(int(rec.PassPL))
	e.u64(rec.FID)
	e.i(int(rec.PL))
	e.i(int(rec.Raid))
	e.i(rec.ChunksBase)
	e.i(rec.StripesBase)
	e.chunks(rec.Chunks)
	e.stripes(rec.Stripes)
	e.ints(rec.ChunkIdx)
	e.i(rec.Serial)
	e.i(rec.StripeID)
	e.chunk(&rec.Chunk)
	e.parity(rec.Parity)
	e.ints(rec.Members)
	e.i(rec.ShardLen)
	e.i(rec.TableIdx)
	e.i(rec.SubIdx)
	e.i(rec.NewProv)
	e.str(rec.NewVID)
	e.u64(rec.FileGen)
	e.u64(rec.ClientGen)
	return e.b
}

// encodeWALState serializes a checkpoint snapshot of the full tables.
func encodeWALState(st *walState) []byte {
	e := newWALEnc(1024 + chunksSizeHint(st.Chunks) + stripesSizeHint(st.Stripes))
	if st.Clients == nil {
		e.u64(0)
	} else {
		e.u64(uint64(len(st.Clients)) + 1)
		for _, name := range sortedKeys(st.Clients) {
			c := st.Clients[name]
			e.str(name)
			e.str(c.Name)
			if c.Passwords == nil {
				e.u64(0)
			} else {
				e.u64(uint64(len(c.Passwords)) + 1)
				for _, h := range sortedKeys(c.Passwords) {
					e.str(h)
					e.i(int(c.Passwords[h]))
				}
			}
			if c.Files == nil {
				e.u64(0)
			} else {
				e.u64(uint64(len(c.Files)) + 1)
				for _, fn := range sortedKeys(c.Files) {
					fe := c.Files[fn]
					e.str(fn)
					e.str(fe.Filename)
					e.i(int(fe.PL))
					e.u64(fe.FID)
					e.ints(fe.ChunkIdx)
					e.i(int(fe.Raid))
					e.u64(fe.Gen)
				}
			}
			e.i(c.Count)
			e.u64(c.Gen)
		}
	}
	e.chunks(st.Chunks)
	e.stripes(st.Stripes)
	e.u64(st.Gen)
	e.u64(st.FIDSeq)
	e.u64(st.EncNonce)
	e.u64(st.VIDCtr)
	return e.b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// walDec is a strict sequential decoder: the first malformed field
// poisons it and every later read returns zero values, so call sites
// check err once at the end.
type walDec struct {
	b   []byte
	v   byte // codec version of the payload, set by version()
	err error
}

func (d *walDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *walDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("walcodec: truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDec) i() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("walcodec: truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// take consumes exactly n bytes, failing before any allocation when the
// input is shorter than claimed.
func (d *walDec) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("walcodec: length %d exceeds %d remaining bytes", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *walDec) str() string { return string(d.take(d.u64())) }

func (d *walDec) blob() []byte {
	n := d.u64()
	if n == 0 {
		return nil
	}
	p := d.take(n - 1)
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// count decodes a length+1 prefix for a collection whose elements each
// occupy at least one input byte, rejecting lengths the remaining input
// cannot possibly hold. Returns (length, isNil).
func (d *walDec) count() (int, bool) {
	n := d.u64()
	if n == 0 {
		return 0, true
	}
	n--
	if n > uint64(len(d.b)) {
		d.fail("walcodec: collection of %d elements exceeds %d remaining bytes", n, len(d.b))
		return 0, true
	}
	return int(n), false
}

func (d *walDec) ints() []int {
	n, isNil := d.count()
	if isNil || d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.i()
	}
	return out
}

// mislead decodes a chunk's misleading-byte positions — the one field
// whose layout depends on the codec version.
func (d *walDec) mislead() mislead.Injection {
	var inj mislead.Injection
	var err error
	if d.v == walCodecV1 {
		inj, err = mislead.FromPositions(d.ints())
	} else {
		inj, err = mislead.FromEncoded(d.take(d.u64()))
	}
	if err != nil {
		d.fail("walcodec: %v", err)
	}
	return inj
}

func (d *walDec) chunk(c *chunkEntry) {
	c.VirtualID = d.str()
	c.PL = privacy.Level(d.i())
	c.CPIndex = d.i()
	c.SPIndex = d.i()
	c.Mislead = d.mislead()
	c.Client = d.str()
	c.Filename = d.str()
	c.Serial = d.i()
	c.PayloadLen = d.i()
	c.DataLen = d.i()
	copy(c.Sum[:], d.take(uint64(len(c.Sum))))
	c.EncKey = d.blob()
	c.StripeID = d.i()
	c.SnapVID = d.str()
	n, isNil := d.count()
	if !isNil && d.err == nil {
		c.Mirrors = make([]mirrorRef, n)
		for i := range c.Mirrors {
			c.Mirrors[i].VirtualID = d.str()
			c.Mirrors[i].CPIndex = d.i()
		}
	}
}

func (d *walDec) chunks() []chunkEntry {
	n, isNil := d.count()
	if isNil || d.err != nil {
		return nil
	}
	out := make([]chunkEntry, n)
	for i := range out {
		d.chunk(&out[i])
	}
	return out
}

func (d *walDec) parity() []parityShard {
	n, isNil := d.count()
	if isNil || d.err != nil {
		return nil
	}
	out := make([]parityShard, n)
	for i := range out {
		out[i].VirtualID = d.str()
		out[i].CPIndex = d.i()
	}
	return out
}

func (d *walDec) stripes() []stripeEntry {
	n, isNil := d.count()
	if isNil || d.err != nil {
		return nil
	}
	out := make([]stripeEntry, n)
	for i := range out {
		s := &out[i]
		s.ID = d.i()
		s.Level = raid.Level(d.i())
		s.ShardLen = d.i()
		s.Members = d.ints()
		s.Parity = d.parity()
	}
	return out
}

// version consumes and checks the leading codec-version byte.
func (d *walDec) version() {
	if len(d.b) == 0 {
		d.fail("walcodec: empty payload")
		return
	}
	if d.b[0] != walCodecVersion && d.b[0] != walCodecV1 {
		d.fail("walcodec: unknown version %d (want %d or %d)", d.b[0], walCodecVersion, walCodecV1)
		return
	}
	d.v = d.b[0]
	d.b = d.b[1:]
}

// done fails when decoded input remains — a well-formed payload is
// consumed exactly.
func (d *walDec) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("walcodec: %d trailing bytes after the last field", len(d.b))
	}
	return d.err
}

// decodeWALRecord parses one commit record, the exact inverse of
// encodeWALRecord.
func decodeWALRecord(data []byte, rec *walRecord) error {
	d := &walDec{b: data}
	d.version()
	rec.Op = d.str()
	rec.Gen = d.u64()
	rec.FIDSeq = d.u64()
	rec.EncNonce = d.u64()
	rec.VIDCtr = d.u64()
	rec.Client = d.str()
	rec.Filename = d.str()
	rec.PassHash = d.str()
	rec.PassPL = privacy.Level(d.i())
	rec.FID = d.u64()
	rec.PL = privacy.Level(d.i())
	rec.Raid = raid.Level(d.i())
	rec.ChunksBase = d.i()
	rec.StripesBase = d.i()
	rec.Chunks = d.chunks()
	rec.Stripes = d.stripes()
	rec.ChunkIdx = d.ints()
	rec.Serial = d.i()
	rec.StripeID = d.i()
	d.chunk(&rec.Chunk)
	rec.Parity = d.parity()
	rec.Members = d.ints()
	rec.ShardLen = d.i()
	rec.TableIdx = d.i()
	rec.SubIdx = d.i()
	rec.NewProv = d.i()
	rec.NewVID = d.str()
	rec.FileGen = d.u64()
	rec.ClientGen = d.u64()
	return d.done()
}

// decodeWALState parses a checkpoint snapshot, the exact inverse of
// encodeWALState.
func decodeWALState(data []byte, st *walState) error {
	d := &walDec{b: data}
	d.version()
	if n, isNil := d.count(); !isNil && d.err == nil {
		st.Clients = make(map[string]*clientEntry, n)
		for i := 0; i < n && d.err == nil; i++ {
			key := d.str()
			c := &clientEntry{Name: d.str()}
			if pn, pNil := d.count(); !pNil && d.err == nil {
				c.Passwords = make(map[string]privacy.Level, pn)
				for j := 0; j < pn && d.err == nil; j++ {
					h := d.str()
					c.Passwords[h] = privacy.Level(d.i())
				}
			}
			if fn, fNil := d.count(); !fNil && d.err == nil {
				c.Files = make(map[string]*fileEntry, fn)
				for j := 0; j < fn && d.err == nil; j++ {
					name := d.str()
					fe := &fileEntry{
						Filename: d.str(),
						PL:       privacy.Level(d.i()),
						FID:      d.u64(),
						ChunkIdx: d.ints(),
						Raid:     raid.Level(d.i()),
						Gen:      d.u64(),
					}
					c.Files[name] = fe
				}
			}
			c.Count = d.i()
			c.Gen = d.u64()
			st.Clients[key] = c
		}
	}
	st.Chunks = d.chunks()
	st.Stripes = d.stripes()
	st.Gen = d.u64()
	st.FIDSeq = d.u64()
	st.EncNonce = d.u64()
	st.VIDCtr = d.u64()
	return d.done()
}
