package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/privacy"
)

// ProviderRow is one row of the paper's Cloud Provider Table (Table I).
type ProviderRow struct {
	Name  string
	PL    privacy.Level
	CL    privacy.CostLevel
	Count int
	// VIDs is the list of virtual ids of chunks (and parity shards)
	// currently hosted by this provider, sorted.
	VIDs []string
}

// ClientRow is one row of the paper's Client Table (Table II).
type ClientRow struct {
	Client    string
	Passwords []PasswordPair
	Count     int
	Chunks    []ClientChunkRef
}

// PasswordPair is the paper's ⟨password, PL⟩ access-control pair. Only
// the credential's hash is available (the distributor never stores
// plaintext), so the table shows a recognizable prefix.
type PasswordPair struct {
	PasswordHash string
	PL           privacy.Level
}

// ClientChunkRef is the paper's quadruple (filename, sl, PL, chunk index).
type ClientChunkRef struct {
	Filename string
	Serial   int
	PL       privacy.Level
	ChunkIdx int
}

// ChunkRow is one row of the paper's Chunk Table (Table III).
type ChunkRow struct {
	VirtualID string
	PL        privacy.Level
	CPIndex   int
	SPIndex   int // -1 renders as NA
	// Mislead holds the leading positions of the row's M set — as many
	// as the paper-style rendering prints — and MisleadCount its size;
	// expanding every decoy of every chunk would make the view cost more
	// than the tables it describes.
	Mislead      []int
	MisleadCount int
}

// chunkRowMisleadSample is how many M positions a ChunkRow carries.
const chunkRowMisleadSample = 3

// ProviderTable snapshots Table I.
func (d *Distributor) ProviderTable() []ProviderRow {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rows := make([]ProviderRow, d.fleet.Len())
	for i := range rows {
		p, _ := d.fleet.At(i)
		info := p.Info()
		rows[i] = ProviderRow{Name: info.Name, PL: info.PL, CL: info.CL, Count: d.provCount[i]}
	}
	for i := range d.chunks {
		d.chunks[i].eachBlob(func(_ BlobKind, at storedShard) {
			rows[at.provIdx].VIDs = append(rows[at.provIdx].VIDs, at.vid)
		})
	}
	for _, st := range d.stripes {
		for _, ps := range st.Parity {
			rows[ps.CPIndex].VIDs = append(rows[ps.CPIndex].VIDs, ps.VirtualID)
		}
	}
	for i := range rows {
		sort.Strings(rows[i].VIDs)
	}
	return rows
}

// ClientTable snapshots Table II.
func (d *Distributor) ClientTable() []ClientRow {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.clients))
	for n := range d.clients {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]ClientRow, 0, len(names))
	for _, n := range names {
		c := d.clients[n]
		row := ClientRow{Client: n, Count: c.Count}
		for hash, pl := range c.Passwords {
			row.Passwords = append(row.Passwords, PasswordPair{PasswordHash: hash, PL: pl})
		}
		sort.Slice(row.Passwords, func(i, j int) bool {
			if row.Passwords[i].PL != row.Passwords[j].PL {
				return row.Passwords[i].PL > row.Passwords[j].PL
			}
			return row.Passwords[i].PasswordHash < row.Passwords[j].PasswordHash
		})
		fnames := make([]string, 0, len(c.Files))
		for fn := range c.Files {
			fnames = append(fnames, fn)
		}
		sort.Strings(fnames)
		for _, fn := range fnames {
			fe := c.Files[fn]
			for serial, idx := range fe.ChunkIdx {
				if idx < 0 {
					continue
				}
				row.Chunks = append(row.Chunks, ClientChunkRef{
					Filename: fn, Serial: serial, PL: fe.PL, ChunkIdx: idx,
				})
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// ChunkTable snapshots Table III.
func (d *Distributor) ChunkTable() []ChunkRow {
	d.mu.RLock()
	defer d.mu.RUnlock()
	rows := make([]ChunkRow, 0, len(d.chunks))
	for _, c := range d.chunks {
		if c.CPIndex < 0 {
			continue // removed
		}
		rows = append(rows, ChunkRow{
			VirtualID:    c.VirtualID,
			PL:           c.PL,
			CPIndex:      c.CPIndex,
			SPIndex:      c.SPIndex,
			Mislead:      c.Mislead.First(chunkRowMisleadSample),
			MisleadCount: c.Mislead.Count(),
		})
	}
	return rows
}

// FormatProviderTable renders Table I the way the paper prints it.
func FormatProviderTable(rows []ProviderRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %3s %3s %8s  %s\n", "CloudProvider", "PL", "CL", "Count", "Virtual id list")
	for _, r := range rows {
		sample := r.VIDs
		more := ""
		if len(sample) > 3 {
			sample = sample[:3]
			more = ", ..."
		}
		fmt.Fprintf(&b, "%-12s %3d %3d %8d  {%s%s}\n", r.Name, int(r.PL), int(r.CL), r.Count, strings.Join(sample, ", "), more)
	}
	return b.String()
}

// FormatClientTable renders Table II.
func FormatClientTable(rows []ClientRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-14s %8s  %s\n", "Client", "(pass, PL)", "Count", "(filename, sl, PL, idx)")
	for _, r := range rows {
		pws := make([]string, len(r.Passwords))
		for i, p := range r.Passwords {
			h := p.PasswordHash
			if len(h) > 8 {
				h = h[:8]
			}
			pws[i] = fmt.Sprintf("(%s…,%d)", h, int(p.PL))
		}
		refs := make([]string, 0, len(r.Chunks))
		for _, c := range r.Chunks {
			refs = append(refs, fmt.Sprintf("(%s,%d,%d,%d)", c.Filename, c.Serial, int(c.PL), c.ChunkIdx))
		}
		if len(refs) > 4 {
			refs = append(refs[:4], "...")
		}
		fmt.Fprintf(&b, "%-8s %-14s %8d  %s\n", r.Client, strings.Join(pws, " "), r.Count, strings.Join(refs, " "))
	}
	return b.String()
}

// FormatChunkTable renders Table III.
func FormatChunkTable(rows []ChunkRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %3s %4s %4s  %s\n", "virtual id", "PL", "CP", "SP", "M")
	for _, r := range rows {
		sp := "NA"
		if r.SPIndex >= 0 {
			sp = fmt.Sprintf("%d", r.SPIndex)
		}
		m := "{}"
		if len(r.Mislead) > 0 {
			more := ""
			if r.MisleadCount > len(r.Mislead) {
				more = ", ..."
			}
			parts := make([]string, len(r.Mislead))
			for i, p := range r.Mislead {
				parts[i] = fmt.Sprintf("%d", p)
			}
			m = "{" + strings.Join(parts, ", ") + more + "}"
		}
		fmt.Fprintf(&b, "%-18s %3d %4d %4s  %s\n", r.VirtualID, int(r.PL), r.CPIndex, sp, m)
	}
	return b.String()
}

// Stats summarizes the distributor's current placement state.
type Stats struct {
	Clients      int
	Files        int
	Chunks       int
	ParityShards int
	MirrorShards int
	Snapshots    int
	Stripes      int
	// PerProvider[i] is the shard count on fleet index i.
	PerProvider []int
}

// Stats returns a snapshot of placement statistics.
func (d *Distributor) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := Stats{Clients: len(d.clients), PerProvider: append([]int(nil), d.provCount...)}
	for _, c := range d.clients {
		s.Files += len(c.Files)
		s.Chunks += c.Count
	}
	for i := range d.chunks {
		d.chunks[i].eachBlob(func(kind BlobKind, _ storedShard) {
			switch kind {
			case BlobMirror:
				s.MirrorShards++
			case BlobSnapshot:
				s.Snapshots++
			}
		})
	}
	for _, st := range d.stripes {
		if len(st.Members) > 0 || len(st.Parity) > 0 {
			s.Stripes++
		}
		s.ParityShards += len(st.Parity)
	}
	return s
}
