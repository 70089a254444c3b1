package transport

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/privacy"
)

// System is the sharded, client-side face of a multi-distributor
// deployment: a consistent-hash ring (internal/dht, virtual-node
// balanced) over one Client per shard. Every ⟨client, filename⟩ pair
// hashes to exactly one owning distributor (dht.FileKey), so a file's
// chunks, generation counters and WAL records live on a single shard;
// account operations (register, password) broadcast, because a client's
// files scatter across all shards. Adding a shard moves ≈1/n of the
// namespace — the rebalancing contract pinned by the dht tests — and
// the vnode spread keeps every shard's slice near 1/n, so aggregate
// throughput scales with shard count instead of with the luck of one
// URL's hash.
type System struct {
	ring   *dht.BalancedRing
	shards []*Client
	urls   []string
	index  map[string]int // ring member name (the URL) -> shard index
}

// NewSystem builds a sharded client over the given distributor base
// URLs. Shard identity is the URL itself: the ring position of each
// shard, and therefore the namespace partition, is stable for a fixed
// URL set regardless of order. A nil hc uses the shared pooled
// transport.
func NewSystem(urls []string, hc *http.Client) (*System, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("transport: system needs at least one shard URL")
	}
	s := &System{
		shards: make([]*Client, len(urls)),
		urls:   append([]string(nil), urls...),
		index:  make(map[string]int, len(urls)),
	}
	for i, u := range urls {
		if _, dup := s.index[u]; dup {
			return nil, fmt.Errorf("transport: duplicate shard URL %q", u)
		}
		s.index[u] = i
		s.shards[i] = NewClient(u, hc)
	}
	ring, err := dht.NewBalancedRing(dht.DefaultVNodes, urls...)
	if err != nil {
		return nil, err
	}
	s.ring = ring
	return s, nil
}

// Shards returns the number of distributors behind the system.
func (s *System) Shards() int { return len(s.shards) }

// URLs returns the shard base URLs in config order.
func (s *System) URLs() []string { return append([]string(nil), s.urls...) }

// Location identifies the shard that owns one ⟨client, filename⟩ pair.
type Location struct {
	Key      uint64 `json:"key"`   // ring position of the file
	Shard    int    `json:"shard"` // index into the config-order shard list
	ShardURL string `json:"shard_url"`
}

// Locate resolves the owning shard of a file without touching the
// network — the routing decision every data op makes, exposed for
// debugging (cloudctl locate).
func (s *System) Locate(client, filename string) Location {
	key := dht.FileKey(client, filename)
	name, err := s.ring.Successor(key)
	if err != nil {
		panic(err) // only an empty ring fails, and NewSystem refused one
	}
	i := s.index[name]
	return Location{Key: key, Shard: i, ShardURL: s.urls[i]}
}

// owner returns the client of the shard owning ⟨client, filename⟩.
func (s *System) owner(client, filename string) *Client {
	return s.shards[s.Locate(client, filename).Shard]
}

// eachShard runs fn against every shard and joins the failures.
func (s *System) eachShard(fn func(c *Client) error) error {
	var errs []error
	for i, c := range s.shards {
		if err := fn(c); err != nil {
			errs = append(errs, fmt.Errorf("shard %d (%s): %w", i, s.urls[i], err))
		}
	}
	return errors.Join(errs...)
}

// RegisterClient creates the account on every shard: files of one
// client hash across the whole ring, so each shard must know it. The
// fan-out has no atomicity — a shard that is down stays unregistered
// and rejects that client's uploads until repaired — so a shard that
// already knows the client (core.ErrExists) counts as success: callers
// repair a partial registration by simply re-issuing the call once the
// missing shard is back (the scrub-style reconciliation for ROADMAP's
// cross-shard gap). Real failures keep their "shard %d (url)" prefix so
// the caller knows exactly which shard needs the retry.
func (s *System) RegisterClient(name string) error {
	return s.eachShard(func(c *Client) error { return idempotent(c.RegisterClient(name)) })
}

// AddPassword registers the ⟨password, PL⟩ pair on every shard, with
// the same idempotent-repair contract as RegisterClient: shards that
// already hold the password acknowledge instead of failing the fan-out.
func (s *System) AddPassword(client, password string, pl privacy.Level) error {
	return s.eachShard(func(c *Client) error { return idempotent(c.AddPassword(client, password, pl)) })
}

// idempotent maps "already exists" to success for namespace-wide
// mutations whose goal state is presence, not creation.
func idempotent(err error) error {
	if errors.Is(err, core.ErrExists) {
		return nil
	}
	return err
}

// Upload ships a file to its owning shard.
func (s *System) Upload(client, password, filename string, data []byte, pl privacy.Level, opts UploadOptions) (core.FileInfo, error) {
	return s.owner(client, filename).Upload(client, password, filename, data, pl, opts)
}

// UploadFrom streams a file to its owning shard.
func (s *System) UploadFrom(client, password, filename string, r io.Reader, pl privacy.Level, opts UploadOptions) (core.FileInfo, error) {
	return s.owner(client, filename).UploadFrom(client, password, filename, r, pl, opts)
}

// GetChunk retrieves one chunk from the owning shard.
func (s *System) GetChunk(client, password, filename string, serial int) ([]byte, error) {
	return s.owner(client, filename).GetChunk(client, password, filename, serial)
}

// GetFile retrieves a whole file from the owning shard.
func (s *System) GetFile(client, password, filename string) ([]byte, error) {
	return s.owner(client, filename).GetFile(client, password, filename)
}

// GetFileTo streams a whole file from the owning shard.
func (s *System) GetFileTo(w io.Writer, client, password, filename string) (int64, error) {
	return s.owner(client, filename).GetFileTo(w, client, password, filename)
}

// GetRange retrieves a byte range from the owning shard.
func (s *System) GetRange(client, password, filename string, offset, length int) ([]byte, error) {
	return s.owner(client, filename).GetRange(client, password, filename, offset, length)
}

// UpdateChunk rewrites one chunk on the owning shard.
func (s *System) UpdateChunk(client, password, filename string, serial int, data []byte) error {
	return s.owner(client, filename).UpdateChunk(client, password, filename, serial, data)
}

// RemoveFile deletes a file on its owning shard.
func (s *System) RemoveFile(client, password, filename string) error {
	return s.owner(client, filename).RemoveFile(client, password, filename)
}

// mergeInto folds one shard's answer into the running total, field by
// field: counters add, flags OR, rows concatenate in shard order, and a
// string keeps the first shard's value. It is the one merge rule of the
// merged routes; what a report needs beyond it (a max, a status) its
// method sets afterwards.
func mergeInto(total, part reflect.Value) {
	switch total.Kind() {
	case reflect.Struct:
		for i := 0; i < total.NumField(); i++ {
			mergeInto(total.Field(i), part.Field(i))
		}
	case reflect.Int, reflect.Int64:
		total.SetInt(total.Int() + part.Int())
	case reflect.Uint64:
		total.SetUint(total.Uint() + part.Uint())
	case reflect.Bool:
		total.SetBool(total.Bool() || part.Bool())
	case reflect.Slice:
		total.Set(reflect.AppendSlice(total, part))
	case reflect.String:
		if total.Len() == 0 {
			total.Set(part)
		}
	}
}

// merged asks every shard with get and folds the answers with mergeInto;
// after, when set, sees each answer next to the total that now holds it.
func merged[T any](s *System, get func(*Client) (T, error), after func(total *T, part T)) (T, error) {
	var total T
	err := s.eachShard(func(c *Client) error {
		part, err := get(c)
		if err != nil {
			return err
		}
		mergeInto(reflect.ValueOf(&total).Elem(), reflect.ValueOf(part))
		if after != nil {
			after(&total, part)
		}
		return nil
	})
	return total, err
}

// Scrub runs a parity scrub on every shard and sums the reports.
func (s *System) Scrub() (core.ScrubReport, error) {
	return merged(s, (*Client).Scrub, nil)
}

// Metrics sums the shards' operation counters.
func (s *System) Metrics() (core.OpMetrics, error) {
	return merged(s, (*Client).Metrics, nil)
}

// Stats sums placement statistics across shards, except Clients, which
// is replicated state: the largest shard's count. PerProvider counts
// concatenate in shard order: each shard owns its own provider fleet,
// so the indices are per-shard, not a shared space.
func (s *System) Stats() (core.Stats, error) {
	clients := 0
	return merged(s, (*Client).Stats, func(total *core.Stats, part core.Stats) {
		clients = max(clients, part.Clients)
		total.Clients = clients
	})
}

// HealthReport merges every shard's health: overall status degrades if
// any shard does (or is unreachable, which is all an error means here),
// provider rows concatenate in shard order, cache and WAL counters add,
// and the checkpoint age is the stalest shard's.
func (s *System) HealthReport() core.HealthReport {
	status, age := "ok", int64(0)
	out, err := merged(s, (*Client).HealthReport, func(_ *core.HealthReport, part core.HealthReport) {
		if part.Status != "ok" {
			status = "degraded"
		}
		age = max(age, part.WAL.LastCheckpointAgeMs)
	})
	if err != nil {
		status = "degraded"
	}
	out.Status, out.WAL.LastCheckpointAgeMs = status, age
	return out
}

// Health succeeds only when every shard is reachable and healthy.
func (s *System) Health() error {
	return s.eachShard((*Client).Health)
}
