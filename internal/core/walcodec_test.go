package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mislead"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// misleadAt builds an Injection from literal positions.
func misleadAt(positions ...int) mislead.Injection {
	inj, err := mislead.FromPositions(positions)
	if err != nil {
		panic(err)
	}
	return inj
}

// codecChunk builds a chunkEntry exercising every field, including the
// -1 sentinels and a nil-vs-empty distinction on EncKey/Mirrors.
func codecChunk(i int) chunkEntry {
	c := chunkEntry{
		VirtualID:  "vid-abc",
		PL:         privacy.High,
		CPIndex:    3,
		SPIndex:    -1,
		Mislead:    misleadAt(1, 7, 19, 20, 400),
		Client:     "alice",
		Filename:   "f",
		Serial:     i,
		PayloadLen: 16384,
		DataLen:    16000,
		EncKey:     []byte{9, 8, 7},
		StripeID:   -1,
		SnapVID:    "snap-1",
		Mirrors:    []mirrorRef{{VirtualID: "m0", CPIndex: 1}, {VirtualID: "m1", CPIndex: 5}},
	}
	for j := range c.Sum {
		c.Sum[j] = byte(i + j)
	}
	if i%2 == 0 {
		c.EncKey = nil
		c.Mirrors = nil
		c.Mislead = mislead.Injection{}
		c.SPIndex = 4
		c.StripeID = 2
	}
	return c
}

// codecRecords are one record of each shape the codec carries: a bare
// register, an upload with rows and stripes, an update with empty (not
// nil) collections, and a placement move.
func codecRecords() []walRecord {
	return []walRecord{
		{Op: "register", Client: "alice", Gen: 1, ClientGen: 1},
		{
			Op: "upload", Gen: 42, FIDSeq: 17, EncNonce: 99, VIDCtr: 1 << 40,
			Client: "alice", Filename: "f", FID: 17, PL: privacy.High,
			Raid: raid.RAID6, ChunksBase: 10, StripesBase: 2,
			Chunks:   []chunkEntry{codecChunk(0), codecChunk(1)},
			Stripes:  []stripeEntry{{ID: 2, Level: raid.RAID6, ShardLen: 512, Members: []int{10, 11}, Parity: []parityShard{{VirtualID: "p0", CPIndex: 6}}}},
			ChunkIdx: []int{10, 11}, FileGen: 1, ClientGen: 3,
		},
		{
			Op: "update", Gen: 43, Client: "alice", Filename: "f", Serial: 1,
			StripeID: 2, Chunk: codecChunk(3),
			Parity: []parityShard{}, Members: []int{}, ChunkIdx: []int{},
			ShardLen: 768, FileGen: 2, ClientGen: 3,
		},
		{Op: "move_parity", Gen: 44, TableIdx: 2, SubIdx: 1, NewProv: 7, NewVID: "nv"},
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := codecRecords()
	for _, want := range recs {
		enc := encodeWALRecord(&want)
		var got walRecord
		if err := decodeWALRecord(enc, &got); err != nil {
			t.Fatalf("op %s: decode: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("op %s: round trip mismatch:\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
}

// The position list travels as the gap bytes mislead.Injection already
// holds, copied whole behind one length prefix — no per-decoy varint
// call on either side, and about a byte per decoy in the frame.
func TestWALChunkMisleadIsOneBlob(t *testing.T) {
	c := codecChunk(1)
	rec := walRecord{Op: "update", Chunk: c}
	enc := encodeWALRecord(&rec)
	if enc[0] != walCodecVersion || walCodecVersion != 2 {
		t.Fatalf("encoder wrote version %d, want 2", enc[0])
	}
	gaps := c.Mislead.Encoded()
	blob := append(binary.AppendUvarint(nil, uint64(len(gaps))), gaps...)
	if !bytes.Contains(enc, blob) {
		t.Fatalf("frame %x does not carry the gap list %x as one length-prefixed blob", enc, blob)
	}
	var got walRecord
	if err := decodeWALRecord(enc, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Chunk.Mislead.Positions(), []int{1, 7, 19, 20, 400}) {
		t.Fatalf("positions after round trip: %v", got.Chunk.Mislead.Positions())
	}
	// The decoded Injection must own its bytes: the frame buffer belongs
	// to the WAL reader.
	for i := range enc {
		enc[i] = 0xff
	}
	if !reflect.DeepEqual(got.Chunk, c) {
		t.Fatal("decoded chunk aliases the frame buffer")
	}
	// A gap list cut inside a varint is corruption, not a shorter list.
	bad := walRecord{Op: "update", Chunk: codecChunk(1)}
	frame := encodeWALRecord(&bad)
	at := bytes.Index(frame, blob)
	frame[at+len(blob)-1] |= 0x80
	if err := decodeWALRecord(frame, &got); err == nil || !strings.Contains(err.Error(), "walcodec") {
		t.Fatalf("gap list ending inside a varint: err = %v", err)
	}
}

// goldenV1Chunks are the rows inside the two version-1 frames below,
// which were written by the last build whose encoder produced version 1
// (positions as absolute zigzag varints). A directory holding such
// frames must keep recovering.
func goldenV1Chunks() []chunkEntry {
	defended := chunkEntry{
		VirtualID: "vid-7", PL: privacy.High, CPIndex: 3, SPIndex: -1,
		Mislead: misleadAt(0, 1, 2, 130, 131, 20000),
		Client:  "alice", Filename: "f", Serial: 1, PayloadLen: 20006, DataLen: 20000,
		StripeID: 4,
	}
	for j := range defended.Sum {
		defended.Sum[j] = byte(j)
	}
	plain := defended
	plain.Mislead = mislead.Injection{}
	plain.Serial = 0
	plain.VirtualID = "vid-6"
	plain.EncKey = []byte{9, 8, 7}
	return []chunkEntry{plain, defended}
}

const (
	goldenV1Record = "010675706c6f61642a11006305616c6963650166000011060c140803057669642d360606010005616c696365016600ccb802c0b802000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f04090807080000057669642d370606010700020484028602c0b80205616c696365016602ccb802c0b802000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f0008000002080cccb802031416020270300a031416000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003"
	goldenV1State  = "010205616c69636505616c6963650202683106020166016606110300020c00040303057669642d360606010005616c696365016600ccb802c0b802000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f04090807080000057669642d370606010700020484028602c0b80205616c696365016602ccb802c0b802000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f0008000002080cccb802031416020270300a2a110063"
)

func TestWALCodecDecodesGoldenV1(t *testing.T) {
	stripes := []stripeEntry{{ID: 4, Level: raid.RAID6, ShardLen: 20006, Members: []int{10, 11}, Parity: []parityShard{{VirtualID: "p0", CPIndex: 5}}}}
	wantRec := walRecord{
		Op: "upload", Gen: 42, FIDSeq: 17, VIDCtr: 99,
		Client: "alice", Filename: "f", FID: 17, PL: privacy.High, Raid: raid.RAID6,
		ChunksBase: 10, StripesBase: 4,
		Chunks: goldenV1Chunks(), Stripes: stripes,
		ChunkIdx: []int{10, 11}, ClientGen: 3,
	}
	frame, err := hex.DecodeString(goldenV1Record)
	if err != nil {
		t.Fatal(err)
	}
	var rec walRecord
	if err := decodeWALRecord(frame, &rec); err != nil {
		t.Fatalf("v1 record: %v", err)
	}
	if !reflect.DeepEqual(rec, wantRec) {
		t.Errorf("v1 record decoded to\n %+v\nwant\n %+v", rec, wantRec)
	}
	// Re-encoding writes version 2 and decodes to the same record: the
	// upgrade is lossless.
	again := encodeWALRecord(&rec)
	var rec2 walRecord
	if again[0] != 2 || decodeWALRecord(again, &rec2) != nil || !reflect.DeepEqual(rec2, wantRec) {
		t.Errorf("v1 record did not survive re-encoding as v2 (version byte %d)", again[0])
	}
	if len(again) >= len(frame) {
		t.Errorf("v2 frame is %d bytes, v1 was %d: the compact form should be smaller", len(again), len(frame))
	}

	wantState := walState{
		Clients: map[string]*clientEntry{"alice": {
			Name: "alice", Passwords: map[string]privacy.Level{"h1": privacy.High},
			Files: map[string]*fileEntry{"f": {Filename: "f", PL: privacy.High, FID: 17, ChunkIdx: []int{0, 1}, Raid: raid.RAID6}},
			Count: 2, Gen: 3,
		}},
		Chunks: goldenV1Chunks(), Stripes: stripes,
		Gen: 42, FIDSeq: 17, VIDCtr: 99,
	}
	snap, err := hex.DecodeString(goldenV1State)
	if err != nil {
		t.Fatal(err)
	}
	var st walState
	if err := decodeWALState(snap, &st); err != nil {
		t.Fatalf("v1 snapshot: %v", err)
	}
	if !reflect.DeepEqual(st, wantState) {
		t.Errorf("v1 snapshot decoded to\n %+v\nwant\n %+v", st, wantState)
	}

	// v1 positions that are not strictly increasing were never valid;
	// they must fail the decode, not reach Strip.
	bad := bytes.Replace(frame, []byte{0x07, 0x00, 0x02, 0x04}, []byte{0x07, 0x04, 0x02, 0x04}, 1)
	if bytes.Equal(bad, frame) {
		t.Fatal("golden frame does not contain the expected position list")
	}
	if err := decodeWALRecord(bad, &rec); err == nil || !strings.Contains(err.Error(), "walcodec") {
		t.Errorf("disordered v1 positions: err = %v", err)
	}
}

// codecState is a checkpoint holding every collection kind: a client with
// rows, one with empty maps and one whose maps are nil.
func codecState() walState {
	return walState{
		Clients: map[string]*clientEntry{
			"alice": {
				Name:      "alice",
				Passwords: map[string]privacy.Level{"h1": privacy.High, "h2": privacy.Low},
				Files: map[string]*fileEntry{
					"f": {Filename: "f", PL: privacy.High, FID: 3, ChunkIdx: []int{0, 1}, Raid: raid.RAID5, Gen: 2},
				},
				Count: 2, Gen: 4,
			},
			"bob":   {Name: "bob", Passwords: map[string]privacy.Level{}, Files: map[string]*fileEntry{}},
			"carol": {Name: "carol", Count: 1},
		},
		Chunks:  []chunkEntry{codecChunk(0), codecChunk(1), codecChunk(2)},
		Stripes: []stripeEntry{{ID: 0, Level: raid.RAID5, ShardLen: 64, Members: []int{0, 1}, Parity: []parityShard{{VirtualID: "p", CPIndex: 2}}}},
		Gen:     9, FIDSeq: 4, EncNonce: 11, VIDCtr: 1 << 33,
	}
}

func TestWALStateRoundTrip(t *testing.T) {
	want := codecState()
	enc := encodeWALState(&want)
	var got walState
	if err := decodeWALState(enc, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Map iteration order must not leak into the encoding.
	if enc2 := encodeWALState(&want); string(enc) != string(enc2) {
		t.Error("encoding the same state twice produced different bytes")
	}
}

// goldenV2Records and goldenV2State pin the layout the encoder writes:
// codecRecords() and codecState() as version 2 encodes them. A round-trip
// test passes after any change that alters both sides alike; this one
// fails when a frame already on disk would no longer decode, or would
// re-encode differently.
var goldenV2Records = []string{
	"020872656769737465720100000005616c6963650000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001",
	"020675706c6f61642a116380808080802005616c6963650166000011060c140403077669642d6162630606080005616c69636501660080800280fa01000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f000406736e61702d3100077669642d6162630606010601050b00fb0205616c69636501660280800280fa010102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20040908070106736e61702d3103026d3002026d310a02040c8008031416020270300c031416000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000103",
	"02067570646174652b00000005616c6963650166000000000000000000010204077669642d6162630606010601050b00fb0205616c69636501660680800280fa01030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122040908070106736e61702d3103026d3002026d310a0101800c000000000203",
	"020b6d6f76655f7061726974792c00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000004020e026e760000",
}

const goldenV2State = "020405616c69636505616c696365030268310602683202020166016606030300020a02040403626f6203626f6201010000056361726f6c056361726f6c0000020004077669642d6162630606080005616c69636501660080800280fa01000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f000406736e61702d3100077669642d6162630606010601050b00fb0205616c69636501660280800280fa010102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20040908070106736e61702d3103026d3002026d310a077669642d6162630606080005616c69636501660480800280fa0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021000406736e61702d310002000a80010300020201700409040b8080808020"

func TestWALCodecGoldenV2(t *testing.T) {
	for i, want := range codecRecords() {
		frame, err := hex.DecodeString(goldenV2Records[i])
		if err != nil {
			t.Fatal(err)
		}
		var got walRecord
		if err := decodeWALRecord(frame, &got); err != nil {
			t.Fatalf("op %s: decode: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("op %s: golden frame decoded to\n %+v\nwant\n %+v", want.Op, got, want)
		}
		if enc := encodeWALRecord(&got); !bytes.Equal(enc, frame) {
			t.Errorf("op %s: re-encoded as\n %x\nwant\n %x", want.Op, enc, frame)
		}
	}
	frame, err := hex.DecodeString(goldenV2State)
	if err != nil {
		t.Fatal(err)
	}
	var got walState
	if err := decodeWALState(frame, &got); err != nil {
		t.Fatalf("state: decode: %v", err)
	}
	if want := codecState(); !reflect.DeepEqual(got, want) {
		t.Errorf("state: golden frame decoded to\n %+v\nwant\n %+v", got, want)
	}
	if enc := encodeWALState(&got); !bytes.Equal(enc, frame) {
		t.Errorf("state: re-encoded as\n %x\nwant\n %x", enc, frame)
	}
}

// TestWALCodecStrictness drives the decoder with malformed inputs: every
// one must fail with a walcodec error. The claimed lengths are ~2^60, so
// a decoder that allocated before checking them against the remaining
// input would panic instead of failing.
func TestWALCodecStrictness(t *testing.T) {
	good := encodeWALRecord(&walRecord{Op: "register", Client: "alice", Gen: 1})
	huge := binary.AppendUvarint(nil, 1<<60)
	update := encodeWALRecord(&codecRecords()[2])
	gaps := codecChunk(3).Mislead.Encoded()
	v1, err := hex.DecodeString(goldenV1Record)
	if err != nil {
		t.Fatal(err)
	}
	records := map[string][]byte{
		"empty":          {},
		"bad version":    append([]byte{walCodecVersion + 1}, good[1:]...),
		"version zero":   append([]byte{0}, good[1:]...),
		"truncated":      good[:len(good)/2],
		"trailing bytes": append(append([]byte{}, good...), 0),
		// A record whose Chunks collection claims ~2^60 elements.
		"huge collection": append(appendUvarints([]byte{walCodecVersion, 2, 'o', 'p'},
			0, 0, 0, 0, // watermarks
			0, 0, 0, // Client, Filename, PassHash
			0,          // PassPL
			0,          // FID
			0, 0, 0, 0, // PL, Raid, ChunksBase, StripesBase
		), huge...),
		"EncKey past the end":       splice(t, update, []byte{4, 9, 8, 7}, huge),
		"gap blob past the end":     splice(t, update, append([]byte{byte(len(gaps))}, gaps...), huge),
		"cut inside Mirrors":        splice(t, update, []byte{3, 2, 'm', '0', 2, 2, 'm', '1'}, []byte{3, 2, 'm', '0', 2}),
		"v1 positions past the end": splice(t, v1, []byte{7, 0, 2, 4}, huge),
	}
	for name, data := range records {
		var rec walRecord
		checkCodecErr(t, name, decodeWALRecord(data, &rec))
	}
	var st walState
	checkCodecErr(t, "client count past the end", decodeWALState(append([]byte{walCodecVersion}, huge...), &st))
}

// splice returns frame up to the first occurrence of field, followed by
// tail in place of the rest.
func splice(t *testing.T, frame, field, tail []byte) []byte {
	t.Helper()
	at := bytes.Index(frame, field)
	if at < 0 {
		t.Fatalf("frame %x does not contain %x", frame, field)
	}
	return append(append([]byte{}, frame[:at]...), tail...)
}

func checkCodecErr(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: decode succeeded, want error", name)
	} else if !strings.Contains(err.Error(), "walcodec") {
		t.Errorf("%s: error %q does not name the codec", name, err)
	}
}

func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// FuzzWALCodec feeds arbitrary frames to both decoders. Neither may
// panic, and whatever one accepts must re-encode deterministically to a
// frame that decodes to the same value. The re-encoding need not equal
// the input: an overlong varint decodes, and the encoder writes the
// short form and version 2.
func FuzzWALCodec(f *testing.F) {
	for _, h := range append([]string{goldenV1Record, goldenV1State, goldenV2State}, goldenV2Records...) {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec walRecord
		if decodeWALRecord(data, &rec) == nil {
			enc := encodeWALRecord(&rec)
			if !bytes.Equal(enc, encodeWALRecord(&rec)) {
				t.Fatal("encoding the same record twice produced different bytes")
			}
			var again walRecord
			if err := decodeWALRecord(enc, &again); err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, rec) {
				t.Fatalf("record changed across re-encoding:\n %+v\n %+v", rec, again)
			}
		}
		var st walState
		if decodeWALState(data, &st) == nil {
			enc := encodeWALState(&st)
			if !bytes.Equal(enc, encodeWALState(&st)) {
				t.Fatal("encoding the same state twice produced different bytes")
			}
			var again walState
			if err := decodeWALState(enc, &again); err != nil {
				t.Fatalf("re-encoded state does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, st) {
				t.Fatalf("state changed across re-encoding:\n %+v\n %+v", st, again)
			}
		}
	})
}
