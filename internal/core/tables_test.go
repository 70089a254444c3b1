package core

import (
	"strings"
	"testing"

	"repro/internal/privacy"
)

func TestTablesReflectState(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "f", payload(64<<10, 50), privacy.Moderate, UploadOptions{MisleadFraction: 0.2}); err != nil {
		t.Fatal(err)
	}

	// Table I.
	prows := d.ProviderTable()
	if len(prows) != 4 {
		t.Fatalf("provider rows = %d", len(prows))
	}
	totalVIDs := 0
	for i, r := range prows {
		if r.Count != len(r.VIDs) {
			t.Fatalf("provider %d: count %d != %d listed vids", i, r.Count, len(r.VIDs))
		}
		totalVIDs += len(r.VIDs)
		p, _ := d.fleet.At(i)
		if r.Name != p.Info().Name || r.PL != p.Info().PL || r.CL != p.Info().CL {
			t.Fatalf("provider row %d identity mismatch: %+v", i, r)
		}
	}
	st := d.Stats()
	if totalVIDs != st.Chunks+st.ParityShards {
		t.Fatalf("vids %d != chunks %d + parity %d", totalVIDs, st.Chunks, st.ParityShards)
	}

	// Table II.
	crows := d.ClientTable()
	if len(crows) != 1 || crows[0].Client != "alice" {
		t.Fatalf("client rows = %+v", crows)
	}
	if crows[0].Count != st.Chunks {
		t.Fatalf("client count = %d, want %d", crows[0].Count, st.Chunks)
	}
	if len(crows[0].Passwords) != 2 {
		t.Fatalf("passwords = %+v", crows[0].Passwords)
	}
	if len(crows[0].Chunks) != st.Chunks {
		t.Fatalf("chunk refs = %d", len(crows[0].Chunks))
	}
	for i, ref := range crows[0].Chunks {
		if ref.Filename != "f" || ref.PL != privacy.Moderate || ref.Serial != i {
			t.Fatalf("chunk ref %d = %+v", i, ref)
		}
	}

	// Table III.
	chrows := d.ChunkTable()
	if len(chrows) != st.Chunks {
		t.Fatalf("chunk rows = %d, want %d", len(chrows), st.Chunks)
	}
	for _, r := range chrows {
		if r.PL != privacy.Moderate {
			t.Fatalf("chunk PL = %v", r.PL)
		}
		if r.SPIndex != -1 {
			t.Fatalf("fresh chunk has snapshot: %+v", r)
		}
		if len(r.Mislead) == 0 {
			t.Fatalf("mislead positions missing: %+v", r)
		}
		if r.CPIndex < 0 || r.CPIndex >= 4 {
			t.Fatalf("CP index out of range: %+v", r)
		}
	}
}

func TestTablesOmitRemovedChunks(t *testing.T) {
	d := testDistributor(t, 5)
	info, err := d.Upload("alice", "root", "f", payload(80<<10, 51), privacy.Moderate, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveChunk("alice", "root", "f", 0); err != nil {
		t.Fatal(err)
	}
	if got := len(d.ChunkTable()); got != info.Chunks-1 {
		t.Fatalf("chunk table rows = %d, want %d", got, info.Chunks-1)
	}
	refs := d.ClientTable()[0].Chunks
	for _, ref := range refs {
		if ref.Serial == 0 {
			t.Fatal("removed serial still referenced in client table")
		}
	}
}

func TestFormatTables(t *testing.T) {
	d := testDistributor(t, 4)
	if _, err := d.Upload("alice", "root", "report.csv", payload(64<<10, 52), privacy.Moderate, UploadOptions{MisleadFraction: 0.1}); err != nil {
		t.Fatal(err)
	}
	p := FormatProviderTable(d.ProviderTable())
	if !strings.Contains(p, "P0") || !strings.Contains(p, "Virtual id list") {
		t.Fatalf("provider table render:\n%s", p)
	}
	c := FormatClientTable(d.ClientTable())
	if !strings.Contains(c, "alice") || !strings.Contains(c, "report.csv") {
		t.Fatalf("client table render:\n%s", c)
	}
	ch := FormatChunkTable(d.ChunkTable())
	if !strings.Contains(ch, "NA") {
		t.Fatalf("chunk table render should show NA snapshots:\n%s", ch)
	}
}

func TestSnapshotAppearsInChunkTable(t *testing.T) {
	d := testDistributor(t, 5)
	if _, err := d.Upload("alice", "root", "f", payload(20_000, 53), privacy.Moderate, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateChunk("alice", "root", "f", 0, []byte("new state"), UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	rows := d.ChunkTable()
	found := false
	for _, r := range rows {
		if r.SPIndex >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no chunk row shows a snapshot provider after update")
	}
	rendered := FormatChunkTable(rows)
	if !strings.Contains(rendered, "NA") && len(rows) > 1 {
		t.Log("all chunks snapshotted (unexpected but not fatal)")
	}
}
