package provider

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DiskProvider is a provider whose blobs persist on the local filesystem —
// what cmd/provider uses with -data-dir so a provider process survives
// restarts, completing the paper's "PCs as Cloud Providers" deployment.
// Keys map to files named by their SHA-256 so arbitrary virtual ids are
// path-safe. It is safe for concurrent use.
type DiskProvider struct {
	info Info
	dir  string

	mu    sync.Mutex
	down  bool
	names map[string]string // key -> filename (loaded from the index)
	usage Usage
}

var _ Provider = (*DiskProvider)(nil)

const diskIndexName = "index.tsv"

// NewDiskProvider opens (or creates) a blob directory. Existing blobs are
// re-indexed, so restarts preserve data.
func NewDiskProvider(info Info, dir string) (*DiskProvider, error) {
	if info.Name == "" {
		return nil, fmt.Errorf("provider: empty name")
	}
	if !info.PL.Valid() || !info.CL.Valid() {
		return nil, fmt.Errorf("provider: invalid PL/CL for %q", info.Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("provider: create data dir: %w", err)
	}
	p := &DiskProvider{info: info, dir: dir, names: make(map[string]string)}
	if err := p.loadIndex(); err != nil {
		return nil, err
	}
	return p, nil
}

func keyFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".blob"
}

// loadIndex restores the key→file map; missing index means empty store.
func (p *DiskProvider) loadIndex() error {
	data, err := os.ReadFile(filepath.Join(p.dir, diskIndexName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("provider: read index: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			continue
		}
		p.names[parts[0]] = parts[1]
		if st, err := os.Stat(filepath.Join(p.dir, parts[1])); err == nil {
			p.usage.BytesStored += st.Size()
		}
	}
	p.usage.Keys = len(p.names)
	return nil
}

// saveIndex persists the key map. Callers hold p.mu.
func (p *DiskProvider) saveIndex() error {
	var b strings.Builder
	keys := make([]string, 0, len(p.names))
	for k := range p.names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\t')
		b.WriteString(p.names[k])
		b.WriteByte('\n')
	}
	tmp := filepath.Join(p.dir, diskIndexName+".tmp")
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(p.dir, diskIndexName))
}

// Info returns the provider identity.
func (p *DiskProvider) Info() Info { return p.info }

// SetOutage toggles simulated unavailability.
func (p *DiskProvider) SetOutage(down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = down
}

// Down reports outage state.
func (p *DiskProvider) Down() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// Probe is Down: there is nothing further to ask.
func (p *DiskProvider) Probe() bool { return p.Down() }

// Put stores data under key, atomically (write + rename).
func (p *DiskProvider) Put(key string, data []byte) error {
	if key == "" {
		return fmt.Errorf("provider: empty key")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return fmt.Errorf("%w: %s", ErrOutage, p.info.Name)
	}
	fname := keyFile(key)
	path := filepath.Join(p.dir, fname)
	var oldSize int64
	if prev, ok := p.names[key]; ok {
		if st, err := os.Stat(filepath.Join(p.dir, prev)); err == nil {
			oldSize = st.Size()
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("provider: write blob: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("provider: commit blob: %w", err)
	}
	p.names[key] = fname
	p.usage.Puts++
	p.usage.BytesIn += int64(len(data))
	p.usage.BytesStored += int64(len(data)) - oldSize
	p.usage.Keys = len(p.names)
	return p.saveIndex()
}

// Get reads the blob stored under key.
func (p *DiskProvider) Get(key string) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return nil, fmt.Errorf("%w: %s", ErrOutage, p.info.Name)
	}
	fname, ok := p.names[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, p.info.Name, key)
	}
	data, err := os.ReadFile(filepath.Join(p.dir, fname))
	if err != nil {
		return nil, fmt.Errorf("provider: read blob: %w", err)
	}
	p.usage.Gets++
	p.usage.BytesOut += int64(len(data))
	return data, nil
}

// Delete removes the blob under key.
func (p *DiskProvider) Delete(key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return fmt.Errorf("%w: %s", ErrOutage, p.info.Name)
	}
	fname, ok := p.names[key]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, p.info.Name, key)
	}
	path := filepath.Join(p.dir, fname)
	var size int64
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("provider: remove blob: %w", err)
	}
	delete(p.names, key)
	p.usage.Deletes++
	p.usage.BytesStored -= size
	p.usage.Keys = len(p.names)
	return p.saveIndex()
}

// Keys lists stored keys sorted.
func (p *DiskProvider) Keys() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]string, 0, len(p.names))
	for k := range p.names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the number of stored keys.
func (p *DiskProvider) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.names)
}

// Dump returns every (key, value) pair — the insider view.
func (p *DiskProvider) Dump() map[string][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string][]byte, len(p.names))
	for k, fname := range p.names {
		if data, err := os.ReadFile(filepath.Join(p.dir, fname)); err == nil {
			out[k] = data
		}
	}
	return out
}

// Usage returns billing counters.
func (p *DiskProvider) Usage() Usage {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.usage
	u.Keys = len(p.names)
	return u
}
