package clientside

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/chunker"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// ClientDistributor is the paper's §IV-C alternative architecture: the
// distributor logic lives inside the client, a downloaded provider list
// seeds a hash ring, and each ⟨filename, serial⟩ maps to a provider via
// consistent hashing. "Client will also have to maintain a Chunk Table
// for his chunks. This approach has some limitations. Client will require
// some memory where the tables will reside." — that memory is this
// struct.
type ClientDistributor struct {
	mu     sync.Mutex
	ring   *Ring
	fleet  *provider.Fleet
	policy privacy.ChunkSizePolicy
	// chunkTable is the client-resident table: filename → per-serial
	// records.
	chunkTable map[string][]clientChunk
}

type clientChunk struct {
	Provider string
	Key      string
	Sum      [32]byte
	Len      int
}

// NewClientDistributor seeds the ring from the fleet's provider names
// (the paper's "downloadable list of Cloud Providers").
func NewClientDistributor(fleet *provider.Fleet, policy privacy.ChunkSizePolicy) (*ClientDistributor, error) {
	if fleet == nil || fleet.Len() == 0 {
		return nil, fmt.Errorf("clientside: empty fleet")
	}
	if len(policy.SizeByLevel) == 0 {
		policy = privacy.DefaultChunkSizes()
	}
	var names []string
	for _, p := range fleet.All() {
		names = append(names, p.Info().Name)
	}
	ring, err := NewRing(names...)
	if err != nil {
		return nil, err
	}
	return &ClientDistributor{
		ring:       ring,
		fleet:      fleet,
		policy:     policy,
		chunkTable: make(map[string][]clientChunk),
	}, nil
}

// Ring exposes the underlying hash ring (for inspection and benches).
func (c *ClientDistributor) Ring() *Ring { return c.ring }

// Upload splits the file client-side and ships each chunk to the provider
// the ring assigns it.
func (c *ClientDistributor) Upload(filename string, data []byte, pl privacy.Level) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.chunkTable[filename]; dup {
		return 0, fmt.Errorf("clientside: file %q already uploaded", filename)
	}
	chunks, err := chunker.Split(data, pl, c.policy)
	if err != nil {
		return 0, err
	}
	records := make([]clientChunk, len(chunks))
	for i, ch := range chunks {
		owner, err := c.ring.Successor(ChunkKey(filename, ch.Serial))
		if err != nil {
			return 0, err
		}
		p, _, err := c.fleet.ByName(owner)
		if err != nil {
			return 0, err
		}
		key := fmt.Sprintf("%016x", ChunkKey(filename, ch.Serial))
		if err := p.Put(key, ch.Data); err != nil {
			return 0, fmt.Errorf("clientside: put chunk %d on %s: %w", ch.Serial, owner, err)
		}
		records[i] = clientChunk{Provider: owner, Key: key, Sum: ch.Sum, Len: len(ch.Data)}
	}
	c.chunkTable[filename] = records
	return len(chunks), nil
}

// GetFile fetches and reassembles a file via ring lookups.
func (c *ClientDistributor) GetFile(filename string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	records, ok := c.chunkTable[filename]
	if !ok {
		return nil, fmt.Errorf("clientside: unknown file %q", filename)
	}
	var out bytes.Buffer
	for serial, rec := range records {
		p, _, err := c.fleet.ByName(rec.Provider)
		if err != nil {
			return nil, err
		}
		data, err := p.Get(rec.Key)
		if err != nil {
			return nil, fmt.Errorf("clientside: chunk %d from %s: %w", serial, rec.Provider, err)
		}
		if sha256.Sum256(data) != rec.Sum {
			return nil, fmt.Errorf("clientside: chunk %d checksum mismatch", serial)
		}
		out.Write(data)
	}
	return out.Bytes(), nil
}

// Remove deletes a file's chunks and its table entry.
func (c *ClientDistributor) Remove(filename string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	records, ok := c.chunkTable[filename]
	if !ok {
		return fmt.Errorf("clientside: unknown file %q", filename)
	}
	for serial, rec := range records {
		p, _, err := c.fleet.ByName(rec.Provider)
		if err != nil {
			return err
		}
		if err := p.Delete(rec.Key); err != nil {
			return fmt.Errorf("clientside: delete chunk %d: %w", serial, err)
		}
	}
	delete(c.chunkTable, filename)
	return nil
}

// TableBytes estimates the client-side memory the paper warns about: the
// size of the resident chunk table.
func (c *ClientDistributor) TableBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for name, records := range c.chunkTable {
		total += len(name)
		for _, r := range records {
			total += len(r.Provider) + len(r.Key) + len(r.Sum) + 8
		}
	}
	return total
}
