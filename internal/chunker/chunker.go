// Package chunker implements the paper's fragmentation step: splitting a
// client file into fixed-size chunks whose size is dictated by the file's
// privacy level ("The chunk size is fixed for a particular privilege
// level. The higher the privilege level, the lower the chunk size."), and
// reassembling chunks back into the file. Each chunk carries a checksum so
// retrieval can detect provider corruption.
package chunker

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/privacy"
)

// Chunk is one fragment of a file, identified within the file by its
// serial number (the paper's "sl no." — the chunk's position in the file).
type Chunk struct {
	Serial int
	Data   []byte
	// Sum is the SHA-256 of Data, computed at split time.
	Sum [32]byte
	// Level is inherited from the parent file ("each chunk having the same
	// privacy level of the parent file").
	Level privacy.Level
}

// ErrCorrupt is returned when a chunk's payload no longer matches its
// checksum.
var ErrCorrupt = errors.New("chunker: chunk checksum mismatch")

// ErrMissing is returned by Reassemble when serials are absent.
var ErrMissing = errors.New("chunker: missing chunk")

// Split fragments data into chunks of the size configured for level. The
// final chunk may be shorter. An empty file yields a single empty chunk so
// zero-byte files round-trip.
func Split(data []byte, level privacy.Level, policy privacy.ChunkSizePolicy) ([]Chunk, error) {
	size, err := policy.Size(level)
	if err != nil {
		return nil, err
	}
	return SplitSize(data, size, level)
}

// SplitSize fragments data into chunks of exactly size bytes (last one
// may be shorter).
func SplitSize(data []byte, size int, level privacy.Level) ([]Chunk, error) {
	if size <= 0 {
		return nil, fmt.Errorf("chunker: chunk size %d must be positive", size)
	}
	n := (len(data) + size - 1) / size
	if n == 0 {
		n = 1
	}
	chunks := make([]Chunk, 0, n)
	for i := 0; i < n; i++ {
		lo := i * size
		hi := lo + size
		if hi > len(data) {
			hi = len(data)
		}
		// Chunk buffers come from the data-plane pool: chunk sizes are
		// fixed per privacy level, so they recycle perfectly. Callers that
		// finish with a chunk may bufpool.Put its Data; callers that hand
		// the bytes onward simply let the GC take them.
		payload := bufpool.Get(hi - lo)
		copy(payload, data[lo:hi])
		chunks = append(chunks, Chunk{
			Serial: i,
			Data:   payload,
			Sum:    sha256.Sum256(payload),
			Level:  level,
		})
	}
	return chunks, nil
}

// Verify checks a chunk's payload against its checksum.
func (c *Chunk) Verify() error {
	if sha256.Sum256(c.Data) != c.Sum {
		return fmt.Errorf("%w: serial %d", ErrCorrupt, c.Serial)
	}
	return nil
}

// Reassemble restores the original file from chunks. Chunks may arrive in
// any order; duplicate serials must agree; every serial 0..max must be
// present. Each chunk is checksum-verified.
func Reassemble(chunks []Chunk) ([]byte, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("%w: no chunks", ErrMissing)
	}
	bySerial := make(map[int]*Chunk, len(chunks))
	maxSerial := -1
	for i := range chunks {
		c := &chunks[i]
		if err := c.Verify(); err != nil {
			return nil, err
		}
		if prev, ok := bySerial[c.Serial]; ok {
			if !bytes.Equal(prev.Data, c.Data) {
				return nil, fmt.Errorf("chunker: conflicting duplicates for serial %d", c.Serial)
			}
			continue
		}
		bySerial[c.Serial] = c
		if c.Serial > maxSerial {
			maxSerial = c.Serial
		}
	}
	var out bytes.Buffer
	for s := 0; s <= maxSerial; s++ {
		c, ok := bySerial[s]
		if !ok {
			return nil, fmt.Errorf("%w: serial %d", ErrMissing, s)
		}
		out.Write(c.Data)
	}
	return out.Bytes(), nil
}
