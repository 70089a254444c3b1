package core

import (
	"sort"

	"repro/internal/privacy"
	"repro/internal/raid"
)

// BlobKind classifies one provider-resident blob in a StateView.
type BlobKind string

const (
	BlobChunk    BlobKind = "chunk"    // a chunk's primary copy
	BlobMirror   BlobKind = "mirror"   // a full replica
	BlobSnapshot BlobKind = "snapshot" // the pre-update snapshot copy
	BlobParity   BlobKind = "parity"   // a stripe parity shard
)

// BlobView locates one committed blob: which provider holds it, under
// which virtual id, and the metadata an external checker needs to decide
// whether that placement is legal and that payload plausible.
type BlobView struct {
	Kind    BlobKind
	VID     string
	ProvIdx int
	// PL is the privacy level governing this blob's placement — the
	// chunk's own level (parity inherits the stripe's). The placement
	// invariant is ProvPL >= PL for every committed blob.
	PL       privacy.Level
	Client   string
	Filename string
	Serial   int // -1 for parity
	// PayloadLen is the exact stored length; 0 when unknown (snapshots
	// are opaque pre-update payloads whose length isn't tracked).
	PayloadLen int
}

// StripeView is one stripe's committed geometry: members in shard order
// plus parity, everything an external oracle needs to recompute parity
// from raw provider bytes and detect cross-generation mixing.
type StripeView struct {
	Level    raid.Level
	ShardLen int
	Members  []BlobView
	Parity   []BlobView
}

// FileView is one committed file: identity, generation and shape.
type FileView struct {
	Client   string
	Filename string
	FID      uint64
	Gen      uint64
	PL       privacy.Level
	Raid     raid.Level
	// Chunks is the serial count including removed (tombstoned) slots;
	// Live counts the serials still backed by a chunk entry.
	Chunks int
	Live   int
}

// StateView is a consistent snapshot of the distributor's committed
// tables, taken under one read-lock hold — the oracle seam simulation
// harnesses check invariants against. It deliberately exposes only
// committed state plus a quiescence indicator: while Quiescent is true
// the view is exact (no staged writes, no inflight blobs, no filename
// reservations), so every provider-resident key outside Blobs is an
// orphan and every Blob must be present and placement-legal.
type StateView struct {
	// Gen is the distributor-wide mutation counter.
	Gen uint64
	// Quiescent reports that no write ticket is open: provPending is all
	// zero, the inflight registry and filename reservations are empty. A
	// leaked ticket (a failure path that forgot releaseTicket) shows up
	// as Quiescent == false at a point the caller knows is idle.
	Quiescent bool
	Files     []FileView
	Blobs     []BlobView
	Stripes   []StripeView
}

// StateOf snapshots d's committed tables. Files are sorted by
// (client, filename); blobs follow chunk-table order then stripe order,
// so two snapshots of identical state are deeply equal. A harness
// function, not a method, so it stays off the product surface.
func StateOf(d *Distributor) StateView {
	d.mu.RLock()
	defer d.mu.RUnlock()

	v := StateView{Gen: d.gen, Quiescent: true}
	if len(d.inflight) > 0 || len(d.reserved) > 0 {
		v.Quiescent = false
	}
	for _, n := range d.provPending {
		if n != 0 {
			v.Quiescent = false
		}
	}

	for cname, ce := range d.clients {
		for fname, fe := range ce.Files {
			fv := FileView{
				Client:   cname,
				Filename: fname,
				FID:      fe.FID,
				Gen:      fe.Gen,
				PL:       fe.PL,
				Raid:     fe.Raid,
				Chunks:   len(fe.ChunkIdx),
			}
			for _, idx := range fe.ChunkIdx {
				if idx >= 0 {
					fv.Live++
				}
			}
			v.Files = append(v.Files, fv)
		}
	}
	sort.Slice(v.Files, func(i, j int) bool {
		if v.Files[i].Client != v.Files[j].Client {
			return v.Files[i].Client < v.Files[j].Client
		}
		return v.Files[i].Filename < v.Files[j].Filename
	})

	for i := range d.chunks {
		e := &d.chunks[i]
		e.eachBlob(func(kind BlobKind, at storedShard) {
			bv := BlobView{
				Kind: kind, VID: at.vid, ProvIdx: at.provIdx, PL: e.PL,
				Client: e.Client, Filename: e.Filename, Serial: e.Serial, PayloadLen: e.PayloadLen,
			}
			if kind == BlobSnapshot {
				bv.PayloadLen = 0 // an opaque pre-update payload, length untracked
			}
			v.Blobs = append(v.Blobs, bv)
		})
	}
	for si := range d.stripes {
		st := &d.stripes[si]
		if len(st.Members) == 0 && len(st.Parity) == 0 {
			continue
		}
		pl := d.stripePL(st)
		sv := StripeView{Level: st.Level, ShardLen: st.ShardLen}
		var owner *chunkEntry
		for _, ci := range st.Members {
			e := &d.chunks[ci]
			if owner == nil {
				owner = e
			}
			sv.Members = append(sv.Members, BlobView{
				Kind: BlobChunk, VID: e.VirtualID, ProvIdx: e.CPIndex, PL: e.PL,
				Client: e.Client, Filename: e.Filename, Serial: e.Serial, PayloadLen: e.PayloadLen,
			})
		}
		for _, ps := range st.Parity {
			pv := BlobView{
				Kind: BlobParity, VID: ps.VirtualID, ProvIdx: ps.CPIndex, PL: pl,
				Serial: -1, PayloadLen: st.ShardLen,
			}
			if owner != nil {
				pv.Client, pv.Filename = owner.Client, owner.Filename
			}
			sv.Parity = append(sv.Parity, pv)
			v.Blobs = append(v.Blobs, pv)
		}
		v.Stripes = append(v.Stripes, sv)
	}
	return v
}
