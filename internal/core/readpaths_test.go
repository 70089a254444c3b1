package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// readPath is one way of reading (part of) the test file back: what it
// should return from the uploaded bytes, and how to ask for it.
type readPath struct {
	name string
	want func(data []byte) []byte
	read func(d *core.Distributor, password, filename string) ([]byte, error)
}

// readPaths lists every read entry point over a file of size bytes in
// chunks of chunk bytes: the whole file three ways, three interior
// windows (inside one chunk, across a chunk boundary, across a stripe
// boundary and more), and every chunk by serial.
func readPaths(size, chunk int) []readPath {
	window := func(off, n int) readPath {
		return readPath{
			name: fmt.Sprintf("GetRange(%d,%d)", off, n),
			want: func(data []byte) []byte { return data[off : off+n] },
			read: func(d *core.Distributor, pw, f string) ([]byte, error) { return d.GetRange("alice", pw, f, off, n) },
		}
	}
	whole := func(data []byte) []byte { return data }
	paths := []readPath{
		{"GetFile", whole, func(d *core.Distributor, pw, f string) ([]byte, error) { return d.GetFile("alice", pw, f) }},
		{"GetFileTo", whole, func(d *core.Distributor, pw, f string) ([]byte, error) {
			var buf bytes.Buffer
			n, err := d.GetFileTo(&buf, "alice", pw, f)
			if err == nil && n != int64(buf.Len()) {
				err = fmt.Errorf("GetFileTo reported %d bytes, wrote %d", n, buf.Len())
			}
			return buf.Bytes(), err
		}},
		window(0, size),
		window(chunk+100, chunk/2),
		window(2*chunk-50, 100),
		window(3*chunk+1, 4*chunk),
	}
	for serial := 0; serial*chunk < size; serial++ {
		serial := serial
		paths = append(paths, readPath{
			name: fmt.Sprintf("GetChunk(%d)", serial),
			want: func(data []byte) []byte { return data[serial*chunk : min((serial+1)*chunk, len(data))] },
			read: func(d *core.Distributor, pw, f string) ([]byte, error) { return d.GetChunk("alice", pw, f, serial) },
		})
	}
	return paths
}

// TestReadPathsAgree: GetFile, GetFileTo, GetRange and GetChunk are sinks
// over one snapshot and one fetch, so under any condition they return the
// same bytes or the same sentinel. Each row stores the file afresh (the
// breakers and the cache remember a fault) and reads it through every
// path.
func TestReadPathsAgree(t *testing.T) {
	const (
		chunk   = 8 << 10 // privacy.High
		size    = 11*chunk + 1234
		removed = 4
	)
	data := randomBytes(size, 19)
	// primaryOf locates a serial's primary blob.
	primaryOf := func(rig *bulkRig, serial int) (prov int, vid string) {
		for _, b := range core.StateOf(rig.d).Blobs {
			if b.Kind == core.BlobChunk && b.Serial == serial {
				return b.ProvIdx, b.VID
			}
		}
		t.Fatalf("no primary blob for serial %d", serial)
		return 0, ""
	}
	conditions := []struct {
		name     string
		password string
		filename string
		arrange  func(rig *bulkRig)
		// wantErr, when set, is the sentinel every path returns; except,
		// when set, names the paths that are not affected.
		wantErr error
		except  func(path string) bool
		// corrupts: the reads must detect a corruption.
		corrupts bool
	}{
		{name: "healthy"},
		{name: "one provider dark", arrange: func(rig *bulkRig) {
			prov, _ := primaryOf(rig, 2)
			rig.hooked[prov].SetPartitioned(true)
		}},
		{name: "one corrupt and one truncated blob", corrupts: true, arrange: func(rig *bulkRig) {
			// Serials 1 and 6 are members of different stripes. The flipped
			// byte is one serial 1 keeps, so every option set corrupts it.
			_, corrupt := primaryOf(rig, 1)
			_, truncated := primaryOf(rig, 6)
			kept := rig.d.KeptByte(corrupt)
			for _, h := range rig.hooked {
				h.SetTransformGet(func(key string, blob []byte) []byte {
					switch key {
					case corrupt:
						blob[kept] ^= 0x40
					case truncated:
						blob = blob[:len(blob)-1]
					}
					return blob
				})
			}
		}},
		{name: "every provider dark", wantErr: core.ErrUnavailable, arrange: func(rig *bulkRig) {
			for _, h := range rig.hooked {
				h.SetPartitioned(true)
			}
		}},
		{name: "a removed serial", wantErr: core.ErrNoSuchChunk, arrange: func(rig *bulkRig) {
			if err := rig.d.RemoveChunk("alice", "root", "f", removed); err != nil {
				t.Fatal(err)
			}
		}, except: func(path string) bool {
			// The other chunks are still served one by one.
			var serial int
			n, _ := fmt.Sscanf(path, "GetChunk(%d)", &serial)
			return n == 1 && serial != removed
		}},
		{name: "wrong password", password: "guess", wantErr: core.ErrAuth},
		{name: "password below the file's PL", password: "visitor", wantErr: core.ErrAuth},
		{name: "no such file", filename: "g", wantErr: core.ErrNoSuchFile},
	}
	optionSets := []struct {
		name string
		opts core.UploadOptions
	}{
		{"plain", core.UploadOptions{}},
		{"mislead", core.UploadOptions{MisleadFraction: 0.25}},
		{"encrypted", core.UploadOptions{EncryptKey: bytes.Repeat([]byte{7}, 16)}},
		{"mirrored", core.UploadOptions{Replicas: 1}},
	}
	paths := readPaths(size, chunk)
	for _, set := range optionSets {
		for _, level := range []raid.Level{raid.RAID5, raid.RAID6} {
			for _, cacheBytes := range []int64{0, 1 << 20} {
				for _, cond := range conditions {
					name := fmt.Sprintf("%s/%v/cache=%d/%s", set.name, level, cacheBytes, cond.name)
					t.Run(name, func(t *testing.T) {
						rig := newBulkRig(t, 6, false, core.Config{CacheBytes: cacheBytes})
						if err := rig.d.AddPassword("alice", "visitor", privacy.Low); err != nil {
							t.Fatal(err)
						}
						opts := set.opts
						opts.Assurance = level
						if _, err := rig.d.Upload("alice", "root", "f", data, privacy.High, opts); err != nil {
							t.Fatal(err)
						}
						if cond.arrange != nil {
							cond.arrange(rig)
						}
						password, filename := "root", "f"
						if cond.password != "" {
							password = cond.password
						}
						if cond.filename != "" {
							filename = cond.filename
						}
						for _, p := range paths {
							got, err := p.read(rig.d, password, filename)
							if cond.wantErr != nil && (cond.except == nil || !cond.except(p.name)) {
								if !errors.Is(err, cond.wantErr) {
									t.Errorf("%s: err = %v, want %v", p.name, err, cond.wantErr)
								}
								continue
							}
							if err != nil || !bytes.Equal(got, p.want(data)) {
								t.Errorf("%s: err=%v, %d bytes, equal=%v", p.name, err, len(got), bytes.Equal(got, p.want(data)))
							}
						}
						if n := rig.d.Metrics().CorruptionsDetected; cond.corrupts && n == 0 {
							t.Error("no read detected the flipped byte")
						}
					})
				}
			}
		}
	}
}
