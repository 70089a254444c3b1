package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/cryptofrag"
	"repro/internal/privacy"
	"repro/internal/raid"
)

var decoyLines = [][]byte{[]byte("9,decoy,row\n"), []byte("8,another,decoy\n")}

// csvPayload is line-oriented data spanning several PL3 chunks.
func csvPayload(rows int) []byte {
	var b bytes.Buffer
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,real,row-%04d\n", i, i*7)
	}
	return b.Bytes()
}

// TestByteWorkRunsUnlocked pins the lock discipline of the three write
// entry points and of every path that re-encodes a stripe: wherever
// payload bytes are split, hashed, encrypted, inflated with decoys or
// folded into parity, d.mu is free. The hook is
// called from those places; a TryLock that fails there means some byte
// work moved back under the lock.
func TestByteWorkRunsUnlocked(t *testing.T) {
	data := csvPayload(4000) // ~80 KB: ten PL3 chunks, three stripes
	for name, opts := range map[string]UploadOptions{
		"EncryptKey":      {EncryptKey: encKey},
		"MisleadFraction": {MisleadFraction: 0.25},
		"MisleadLines":    {MisleadLines: decoyLines},
	} {
		t.Run(name, func(t *testing.T) {
			d := testDistributor(t, 6)
			seen := map[string]int{}
			d.byteWorkHook = func(stage string) {
				seen[stage]++
				if !d.mu.TryLock() {
					t.Errorf("d.mu held during %s", stage)
					return
				}
				d.mu.Unlock()
			}
			expect := func(op string, stages ...string) {
				t.Helper()
				for _, s := range stages {
					if seen[s] == 0 {
						t.Errorf("%s never reported stage %q", op, s)
					}
				}
				clear(seen)
			}

			if _, err := d.Upload("alice", "root", "buffered", data, privacy.High, opts); err != nil {
				t.Fatal(err)
			}
			expect("Upload", "split", "prepare", "parity")

			if _, err := d.UploadStream("alice", "root", "streamed", bytes.NewReader(data), privacy.High, opts); err != nil {
				t.Fatal(err)
			}
			expect("UploadStream", "split", "prepare", "parity")

			// An encrypted file stays encrypted on update; decoys are
			// asked for again.
			upd := opts
			upd.EncryptKey = nil
			if err := d.UpdateChunk("alice", "root", "buffered", 1, data[:5000], upd); err != nil {
				t.Fatal(err)
			}
			expect("UpdateChunk", "prepare", "parity")

			for _, f := range []string{"buffered", "streamed"} {
				want := data
				if f == "buffered" {
					want = append(append(append([]byte(nil), data[:8192]...), data[:5000]...), data[16384:]...)
				}
				got, err := d.GetFile("alice", "root", f)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s does not round-trip: %v", f, err)
				}
			}

			// The maintenance paths re-encode parity through the same
			// helper: removing a chunk (over the survivors), evacuating a
			// provider that holds a parity shard, and the scrub's parity
			// phase.
			if err := d.RemoveChunk("alice", "root", "streamed", 2); err != nil {
				t.Fatal(err)
			}
			expect("RemoveChunk", "parity")

			if _, err := d.Decommission(d.stripes[0].Parity[0].CPIndex); err != nil {
				t.Fatal(err)
			}
			expect("Decommission", "parity")

			if rep, err := d.Scrub(); err != nil || rep.ParityChecked == 0 {
				t.Fatalf("scrub: %+v, %v", rep, err)
			}
			expect("Scrub", "parity")
		})
	}
}

// TestSameSeedSameBlobs: the decoy stream and the nonces are functions of
// the configured seed and the operation order alone, so two distributors
// fed the same operations store byte-identical blobs under identical
// ids — what simcheck and minecheck replay on.
func TestSameSeedSameBlobs(t *testing.T) {
	data := csvPayload(3000)
	run := func() []map[string][]byte {
		d, err := New(Config{Fleet: testFleet(t, 6), Secret: []byte("s"), MisleadSeed: 42, StreamWindow: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RegisterClient("alice"); err != nil {
			t.Fatal(err)
		}
		if err := d.AddPassword("alice", "root", privacy.High); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Upload("alice", "root", "bytes", data, privacy.High, UploadOptions{MisleadFraction: 0.25, Assurance: raid.RAID6}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.UploadStream("alice", "root", "lines", bytes.NewReader(data), privacy.High, UploadOptions{MisleadLines: decoyLines}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Upload("alice", "root", "sealed", data, privacy.High, UploadOptions{EncryptKey: encKey}); err != nil {
			t.Fatal(err)
		}
		for _, u := range []struct {
			file string
			opts UploadOptions
		}{
			{"bytes", UploadOptions{MisleadFraction: 0.1}},
			{"lines", UploadOptions{MisleadLines: decoyLines[:1]}},
			{"sealed", UploadOptions{}},
		} {
			if err := d.UpdateChunk("alice", "root", u.file, 2, data[:6000], u.opts); err != nil {
				t.Fatal(err)
			}
		}
		var dumps []map[string][]byte
		for _, p := range d.fleet.All() {
			dumps = append(dumps, p.Dump())
		}
		return dumps
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two distributors with the same seed and the same operations stored different blobs")
	}
}

// TestUpdateDoesNotReplayDecoyPositions: every write draws its decoys
// from its own stream, so rewriting a chunk — even with the very same
// bytes — lands the decoys somewhere new, update after update.
func TestUpdateDoesNotReplayDecoyPositions(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(40_000, 9)
	opts := UploadOptions{MisleadFraction: 0.25}
	if _, err := d.Upload("alice", "root", "f", data, privacy.High, opts); err != nil {
		t.Fatal(err)
	}
	positions := func() []int {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.chunks[d.clients["alice"].Files["f"].ChunkIdx[0]].Mislead.Positions()
	}
	seen := [][]int{positions()}
	for i := 0; i < 3; i++ {
		if err := d.UpdateChunk("alice", "root", "f", 0, data[:8192], opts); err != nil {
			t.Fatal(err)
		}
		now := positions()
		if len(now) != len(seen[0]) {
			t.Fatalf("update %d: %d decoys, upload had %d", i, len(now), len(seen[0]))
		}
		for j, earlier := range seen {
			if reflect.DeepEqual(now, earlier) {
				t.Fatalf("update %d replays the decoy positions of write %d", i, j)
			}
		}
		seen = append(seen, now)
	}
}

// TestDecoyBlobsGolden pins every stored byte of a seeded mix of decoyed
// writes, across builds: a large RAID-6 upload at the defended fraction,
// a sparse one, a dense mirrored one, line decoys, and updates that draw
// fresh streams. The determinism tests above compare a run with its own
// replay, so they cannot see the decoy stream itself change; this digest
// can. It is the digest math/rand's source (rand.NewSource) gives: a
// change that moves it moves every stored decoy and must say so.
func TestDecoyBlobsGolden(t *testing.T) {
	const want = "d16ad74f28f74a05c3a6d4eccfd707582777accbe12d5722405984bfbce805bb"
	d, err := New(Config{Fleet: testFleet(t, 6), Secret: []byte("s"), MisleadSeed: 31, StreamWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterClient("alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPassword("alice", "root", privacy.High); err != nil {
		t.Fatal(err)
	}
	for _, u := range []struct {
		file string
		data []byte
		pl   privacy.Level
		opts UploadOptions
	}{
		{"defended", payload(4<<20, 1), privacy.High, UploadOptions{MisleadFraction: 0.25, Assurance: raid.RAID6}},
		{"sparse", payload(300<<10, 2), privacy.Moderate, UploadOptions{MisleadFraction: 0.05}},
		{"dense", payload(100<<10, 3), privacy.High, UploadOptions{MisleadFraction: 0.9, Replicas: 1}},
		{"lines", csvPayload(3000), privacy.High, UploadOptions{MisleadLines: decoyLines}},
	} {
		if _, err := d.UploadStream("alice", "root", u.file, bytes.NewReader(u.data), u.pl, u.opts); err != nil {
			t.Fatalf("%s: %v", u.file, err)
		}
	}
	if err := d.UpdateChunk("alice", "root", "defended", 7, payload(8<<10, 4), UploadOptions{MisleadFraction: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateChunk("alice", "root", "dense", 1, payload(5000, 5), UploadOptions{MisleadFraction: 0.9}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, p := range d.fleet.All() {
		blobs := p.Dump()
		keys := make([]string, 0, len(blobs))
		for k := range blobs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%d %s %d\n", i, k, len(blobs[k]))
			h.Write(blobs[k])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("sha256 over every provider blob = %s, want %s", got, want)
	}
}

// TestConcurrentEncryptedUploadsDistinctNonces: nonces are handed out in
// blocks under d.mu and used after the unlock; concurrent uploads under
// one key must still never share one. Each blob starts with its IV, a
// function of (key, nonce), so the IVs seen on the providers must be
// exactly those of nonces 1..N, each once.
func TestConcurrentEncryptedUploadsDistinctNonces(t *testing.T) {
	d := testDistributor(t, 6)
	const workers = 8
	data := payload(50_000, 11) // 7 PL3 chunks each
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", w)
			var err error
			if w%2 == 0 {
				_, err = d.Upload("alice", "root", name, data, privacy.High, UploadOptions{EncryptKey: encKey, NoParity: true})
			} else {
				_, err = d.UploadStream("alice", "root", name, bytes.NewReader(data), privacy.High, UploadOptions{EncryptKey: encKey, NoParity: true})
			}
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()

	ivs := map[string]int{}
	for _, p := range d.fleet.All() {
		for _, blob := range p.Dump() {
			ivs[string(blob[:16])]++
		}
	}
	total := workers * 7
	if len(ivs) != total {
		t.Fatalf("%d distinct IVs over %d encrypted chunks", len(ivs), total)
	}
	for n := 1; n <= total; n++ {
		sealed, err := cryptofrag.Encrypt(encKey, nil, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		if ivs[string(sealed[:16])] != 1 {
			t.Fatalf("nonce %d used %d times", n, ivs[string(sealed[:16])])
		}
	}
}
