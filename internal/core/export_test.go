package core

import "slices"

// KeptByte returns the offset of a byte of the chunk blob stored under vid
// that is not a decoy: the first kept byte from the blob's middle on. A
// test that flips it corrupts the chunk wherever its decoys fell; a
// flipped decoy is stripped unseen.
func (d *Distributor) KeptByte(vid string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i := range d.chunks {
		if e := &d.chunks[i]; e.VirtualID == vid {
			decoys := e.Mislead.Positions()
			off := e.PayloadLen / 2
			for slices.Contains(decoys, off) {
				off++
			}
			return off
		}
	}
	panic("KeptByte: no chunk stored under " + vid)
}
