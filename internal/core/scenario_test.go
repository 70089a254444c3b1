package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/privacy"
)

// TestFigure3Walkthrough reproduces the paper's two application-architecture
// scenarios: the accepted request (Bob, x9pr, file1, 0) and the denied
// request (Bob, aB1c, file1, 0).
func TestFigure3Walkthrough(t *testing.T) {
	d, err := experiments.Figure3Distributor()
	if err != nil {
		t.Fatal(err)
	}

	// Scenario 1: "the password x9pr is listed under Bob. The privacy
	// level of the password x9pr is 1 and the privacy level of chunk 0 of
	// file1 is also 1... the password is privileged enough."
	chunk, err := d.GetChunk("Bob", "x9pr", "file1", 0)
	if err != nil {
		t.Fatalf("accepted scenario failed: %v", err)
	}
	if len(chunk) != 1024 {
		t.Fatalf("chunk size = %d", len(chunk))
	}

	// Scenario 2: "The password aB1c is listed under Bob and its privacy
	// level is 0. As the privacy level of the requested chunk is 1, the
	// password is not privileged enough... Hence its request is denied."
	if _, err := d.GetChunk("Bob", "aB1c", "file1", 0); !errors.Is(err, core.ErrAuth) {
		t.Fatalf("denied scenario: err = %v, want ErrAuth", err)
	}
}

func TestFigure3VirtualIDs(t *testing.T) {
	d, err := experiments.Figure3Distributor()
	if err != nil {
		t.Fatal(err)
	}
	rows := d.ChunkTable()
	if len(rows) != 7 {
		t.Fatalf("chunk rows = %d, want 7 (3+2+2)", len(rows))
	}
	want := map[string]bool{}
	for _, v := range experiments.Figure3VIDs {
		want[v] = true
	}
	for _, r := range rows {
		if !want[r.VirtualID] {
			t.Fatalf("unexpected virtual id %s", r.VirtualID)
		}
	}
	// Chunk 0 of file1 carries the figure's id 10986.
	ct := d.ClientTable()
	var bob core.ClientRow
	for _, r := range ct {
		if r.Client == "Bob" {
			bob = r
		}
	}
	if bob.Client == "" {
		t.Fatal("Bob missing from client table")
	}
	first := bob.Chunks[0]
	if first.Filename != "file1" || first.Serial != 0 {
		t.Fatalf("first chunk ref = %+v", first)
	}
	if got := rows[first.ChunkIdx].VirtualID; got != "10986" {
		t.Fatalf("file1#0 virtual id = %s, want 10986", got)
	}
}

func TestFigure3TablesMatchPaperShapes(t *testing.T) {
	d, err := experiments.Figure3Distributor()
	if err != nil {
		t.Fatal(err)
	}

	// Provider table: the 7 named providers with the paper's PL/CL.
	prows := d.ProviderTable()
	if len(prows) != 7 {
		t.Fatalf("providers = %d", len(prows))
	}
	if prows[6].Name != "Earth" || prows[6].PL != privacy.Low || prows[6].CL != 1 {
		t.Fatalf("Earth row = %+v", prows[6])
	}
	if prows[1].Name != "AWS" || prows[1].PL != privacy.High {
		t.Fatalf("AWS row = %+v", prows[1])
	}

	// Client table: Bob has 4 ⟨password, PL⟩ pairs, Roy has 1.
	crows := d.ClientTable()
	if len(crows) != 2 {
		t.Fatalf("clients = %d", len(crows))
	}
	for _, r := range crows {
		switch r.Client {
		case "Bob":
			if len(r.Passwords) != 4 || r.Count != 5 {
				t.Fatalf("Bob row = %+v", r)
			}
		case "Roy":
			if len(r.Passwords) != 1 || r.Count != 2 {
				t.Fatalf("Roy row = %+v", r)
			}
		default:
			t.Fatalf("unexpected client %s", r.Client)
		}
	}

	// Every chunk sits on a provider with PL >= chunk PL (the paper's
	// placement invariant).
	for _, r := range d.ChunkTable() {
		p := prows[r.CPIndex]
		if p.PL < r.PL {
			t.Fatalf("chunk %s (PL %v) on provider %s (PL %v)", r.VirtualID, r.PL, p.Name, p.PL)
		}
	}
}

func TestFigure3RoysFileNeedsHighPrivilege(t *testing.T) {
	d, _ := experiments.Figure3Distributor()
	if _, err := d.GetFile("Roy", "eV2t", "file3"); err != nil {
		t.Fatal(err)
	}
	// Bob cannot read Roy's file even with his highest password.
	if _, err := d.GetFile("Bob", "Ty7e", "file3"); !errors.Is(err, core.ErrNoSuchFile) {
		t.Fatalf("cross-client access: %v", err)
	}
}
