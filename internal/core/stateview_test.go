package core

import (
	"bytes"
	"testing"

	"repro/internal/privacy"
	"repro/internal/raid"
)

func TestStateViewShapeAndQuiescence(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(40_000, 41)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Assurance: raid.RAID6, Replicas: 1}); err != nil {
		t.Fatal(err)
	}
	v := StateOf(d)
	if !v.Quiescent {
		t.Fatal("idle distributor must report Quiescent")
	}
	if len(v.Files) != 1 || v.Files[0].Filename != "f" || v.Files[0].Live == 0 {
		t.Fatalf("Files = %+v", v.Files)
	}
	if len(v.Stripes) == 0 {
		t.Fatal("no stripes in view")
	}
	// Every committed blob must exist on its provider at its recorded
	// length, on a provider whose PL covers the blob's.
	for _, b := range v.Blobs {
		p, err := d.fleet.At(b.ProvIdx)
		if err != nil {
			t.Fatalf("blob %s on bad provider %d", b.VID, b.ProvIdx)
		}
		if p.Info().PL < b.PL {
			t.Fatalf("blob %s (PL %d) placed on %s (PL %d)", b.VID, b.PL, p.Info().Name, p.Info().PL)
		}
		got, err := p.Get(b.VID)
		if err != nil {
			t.Fatalf("blob %s missing from %s: %v", b.VID, p.Info().Name, err)
		}
		if b.PayloadLen > 0 && len(got) != b.PayloadLen {
			t.Fatalf("blob %s length %d, view says %d", b.VID, len(got), b.PayloadLen)
		}
	}
	// Two snapshots of unchanged state are identical.
	v2 := StateOf(d)
	if len(v2.Blobs) != len(v.Blobs) || v2.Gen != v.Gen {
		t.Fatal("repeated StateView of idle state differs")
	}
}

func TestScrubRepairsRottedParity(t *testing.T) {
	d := testDistributor(t, 6)
	data := payload(50_000, 42)
	if _, err := d.Upload("alice", "root", "f", data, privacy.Moderate, UploadOptions{Assurance: raid.RAID6}); err != nil {
		t.Fatal(err)
	}
	// Rot one parity blob at rest: same length, different bytes. The
	// chunk phase of Scrub cannot see this — only parity recompute can.
	v := StateOf(d)
	var target BlobView
	for _, b := range v.Blobs {
		if b.Kind == BlobParity {
			target = b
			break
		}
	}
	if target.VID == "" {
		t.Fatal("no parity blob found")
	}
	p, _ := d.fleet.At(target.ProvIdx)
	stored, err := p.Get(target.VID)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), stored...)
	for i := range stored {
		stored[i] ^= 0x5A
	}
	if err := p.Put(target.VID, stored); err != nil {
		t.Fatal(err)
	}

	rep, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParityChecked == 0 {
		t.Fatal("ParityChecked = 0, want > 0")
	}
	if rep.ParityRepaired == 0 {
		t.Fatalf("ParityRepaired = 0, want > 0 (report: %+v)", rep)
	}
	healed, err := p.Get(target.VID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, want) {
		t.Fatal("scrub did not restore the parity blob's original bytes")
	}
	// A clean second pass finds nothing to repair.
	rep2, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ParityRepaired != 0 || rep2.ParityUnrepairable != 0 {
		t.Fatalf("second scrub still repairing: %+v", rep2)
	}
}
