package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/privacy"
)

// Client is a Go client for one DistributorServer, or for a namespace
// sharded over several — what an application links against instead of
// talking to cloud providers directly. Every method is one row of the
// route table (routes.go) plus its typed arguments: the row says how the
// request is sent, whether it may be replayed after a network error, and
// which shards it goes to (DESIGN.md §14). Over several shards a
// consistent-hash ring (internal/dht, virtual-node balanced) names the
// one distributor owning each ⟨client, filename⟩ pair (dht.FileKey), so
// a file's chunks, generation counters and WAL records live on a single
// shard; adding a shard moves ≈1/n of the namespace.
type Client struct {
	urls  []string          // shard base URLs in config order, trailing slash trimmed
	ring  *dht.BalancedRing // nil for one distributor
	http  *http.Client
	retry *retrier
}

// NewClient creates a client of one distributor. A nil hc gets a default
// client backed by the shared pooled transport (see pool.go), so warm
// connections survive bursts instead of re-dialing.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = defaultHTTPClient(30 * time.Second)
	}
	return &Client{
		urls:  []string{strings.TrimRight(baseURL, "/")},
		http:  hc,
		retry: newRetrier(),
	}
}

// NewShardedClient creates a client of the distributors at urls, each
// owning the files the ring gives it. Shard identity is the URL itself:
// the namespace partition is stable for a fixed URL set regardless of
// order. A nil hc is as for NewClient.
func NewShardedClient(urls []string, hc *http.Client) (*Client, error) {
	if len(urls) == 0 {
		return nil, errors.New("transport: a sharded client needs at least one shard URL")
	}
	c := NewClient(urls[0], hc)
	c.urls = make([]string, len(urls))
	for i, u := range urls {
		c.urls[i] = strings.TrimRight(u, "/")
	}
	ring, err := dht.NewBalancedRing(dht.DefaultVNodes, c.urls...)
	if err != nil {
		return nil, fmt.Errorf("transport: shard URLs: %w", err)
	}
	c.ring = ring
	return c, nil
}

// Shards returns the number of distributors behind the client.
func (c *Client) Shards() int { return len(c.urls) }

// URLs returns the shard base URLs in config order.
func (c *Client) URLs() []string { return slices.Clone(c.urls) }

// Location identifies the shard that owns one ⟨client, filename⟩ pair.
type Location struct {
	Key      uint64 `json:"key"`   // ring position of the file
	Shard    int    `json:"shard"` // index into the config-order shard list
	ShardURL string `json:"shard_url"`
}

// Locate resolves the owning shard of a file without touching the
// network — the routing decision every owner row makes, exposed for
// debugging (cloudctl locate).
func (c *Client) Locate(client, filename string) Location {
	key := dht.FileKey(client, filename)
	shard := 0
	if c.ring != nil {
		name, err := c.ring.Successor(key)
		if err != nil {
			panic(err) // only an empty ring fails, and NewShardedClient refused one
		}
		shard = slices.Index(c.urls, name)
	}
	return Location{Key: key, Shard: shard, ShardURL: c.urls[shard]}
}

// owner returns the base URL of the shard owning ⟨client, filename⟩.
func (c *Client) owner(client, filename string) string {
	return c.Locate(client, filename).ShardURL
}

// eachShard runs fn against every shard and joins the failures, each
// named by its shard; one distributor's failure comes back as it is.
func (c *Client) eachShard(fn func(base string) error) error {
	if len(c.urls) == 1 {
		return fn(c.urls[0])
	}
	var errs []error
	for i, u := range c.urls {
		if err := fn(u); err != nil {
			errs = append(errs, fmt.Errorf("shard %d (%s): %w", i, u, err))
		}
	}
	return errors.Join(errs...)
}

// idempotent maps "already exists" to success for namespace-wide
// mutations whose goal state is presence, not creation.
func idempotent(err error) error {
	if errors.Is(err, core.ErrExists) {
		return nil
	}
	return err
}

// refusal answers a per-shard row over several shards: it names provider
// indices, which each shard numbers for itself, so there is no
// deployment-wide answer. ShardProxy answers the same text with 421.
func (c *Client) refusal(rt *route) error {
	return &httpError{http.StatusMisdirectedRequest, fmt.Sprintf("transport: %s %s is per-shard (provider indices are per-shard); ask one shard directly: %s",
		rt.method, rt.path, strings.Join(c.urls, ", "))}
}

// exchange sends body on rt to the shards its class names: an owner row
// to the shard owning key's file; an every-shard row to each shard, one
// that already holds the state counting as done, so re-issuing the call
// repairs a partial fan-out; a per-shard row nowhere. One distributor is
// sent every row. A merged row goes through merged instead.
func (c *Client) exchange(rt *route, key fileReq, body []byte) ([]byte, error) {
	switch {
	case len(c.urls) == 1 || rt.class == ownerRouted:
		return c.send(c.owner(key.Client, key.Filename), rt, body)
	case rt.class == perShard:
		return nil, c.refusal(rt)
	}
	return nil, c.eachShard(func(base string) error {
		_, err := c.send(base, rt, body)
		return idempotent(err)
	})
}

// ErrOversizeResponse marks a response body that reached the transfer
// size bound. Before this check existed the client silently truncated
// such a body at maxBlobBytes and handed it back as a success, which
// surfaced later as an inexplicable length or checksum mismatch far
// from the cause.
var ErrOversizeResponse = errors.New("transport: response exceeds size limit")

// maxRespRead bounds how much of a distributor response body the client
// will accept. It is a variable (normally maxBlobBytes) only so tests
// can lower it without serving a 64 MiB body.
var maxRespRead int64 = maxBlobBytes

// netError marks a failure at the transport layer — either the request
// never produced an HTTP response, or the response died mid-body after
// the server had already executed the request. Only layers that know
// the call is idempotent may retry on it.
type netError struct{ err error }

func (e *netError) Error() string { return e.err.Error() }
func (e *netError) Unwrap() error { return e.err }

// isNetworkError reports whether err came from the transport itself (no
// HTTP response at all) rather than from a server status.
func isNetworkError(err error) bool {
	var ne *netError
	return errors.As(err, &ne)
}

// do sends req once and returns the response payload, read under the
// metadata cap; a non-2xx status comes back as the error it names.
func (c *Client) do(path string, req *http.Request) ([]byte, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, &netError{fmt.Errorf("transport: %s: %w", path, err)}
	}
	defer resp.Body.Close()
	payload, err := readResponse(path, resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return nil, errorFrom(path, resp, payload)
	}
	return payload, nil
}

// once sends one attempt of a JSON-or-bodiless request on rt to the
// distributor at base. A fresh reader is built per attempt, so a
// partially consumed body never poisons a retry.
func (c *Client) once(ctx context.Context, base string, rt *route, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, rt.method, base+rt.path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.do(rt.path, req)
}

// send is once under the route's retry column: a replay route is resent
// with jittered exponential backoff on network errors, including a
// response that died mid-body.
func (c *Client) send(base string, rt *route, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		payload, err := c.once(context.Background(), base, rt, body)
		if !rt.retry || !isNetworkError(err) || attempt >= netRetries-1 {
			return payload, err
		}
		c.retry.sleep(c.retry.backoff(attempt))
	}
}

// call sends q, the route's own DTO, as the JSON request; a DTO that
// embeds fileReq routes by its file.
func call[Req any](c *Client, rt routeOf[Req], q Req) ([]byte, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	var key fileReq
	if f, ok := any(q).(interface{ file() fileReq }); ok {
		key = f.file()
	}
	return c.exchange(rt.route, key, body)
}

// into decodes a JSON reply.
func into[T any](payload []byte, err error) (T, error) {
	var v T
	if err == nil {
		err = json.Unmarshal(payload, &v)
	}
	return v, err
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

// merged asks every shard for rt's answer and folds the answers with
// mergeInto; after, when set, sees each answer next to the total that
// now holds it. One distributor's answer comes back as it is.
func merged[T any](c *Client, rt *route, after func(total *T, part T)) (T, error) {
	if len(c.urls) == 1 {
		return into[T](c.send(c.urls[0], rt, nil))
	}
	var total T
	err := c.eachShard(func(base string) error {
		part, err := into[T](c.send(base, rt, nil))
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

// RegisterClient creates a client account. Over several shards it goes
// to each: files of one client hash across the whole ring. The fan-out
// has no atomicity — a shard that is down stays unregistered and rejects
// that client's uploads until repaired — so a failure names its shard,
// and re-issuing the call once the shard is back repairs it.
func (c *Client) RegisterClient(name string) error {
	_, err := call(c, routeRegister, clientReq{Name: name})
	return err
}

// AddPassword registers a ⟨password, PL⟩ pair, on every shard like
// RegisterClient.
func (c *Client) AddPassword(client, password string, pl privacy.Level) error {
	_, err := call(c, routeAddPassword, passwordReq{Client: client, Password: password, PL: int(pl)})
	return err
}

// UploadOptions is core.UploadOptions: the wire carries every field
// (write.go), so the client takes the distributor's own type.
type UploadOptions = core.UploadOptions

// GetChunk fetches one chunk by (filename, serial).
func (c *Client) GetChunk(client, password, filename string, serial int) ([]byte, error) {
	return call(c, routeGetChunk, chunkReq{fileReq{client, password, filename}, serial})
}

// GetFile fetches a whole file.
func (c *Client) GetFile(client, password, filename string) ([]byte, error) {
	return call(c, routeGetFile, fileReq{client, password, filename})
}

// GetSnapshot fetches a chunk's pre-modification state.
func (c *Client) GetSnapshot(client, password, filename string, serial int) ([]byte, error) {
	return call(c, routeGetSnapshot, chunkReq{fileReq{client, password, filename}, serial})
}

// RemoveChunk deletes one chunk.
func (c *Client) RemoveChunk(client, password, filename string, serial int) error {
	_, err := call(c, routeRemoveChunk, chunkReq{fileReq{client, password, filename}, serial})
	return err
}

// RemoveFile deletes a file.
func (c *Client) RemoveFile(client, password, filename string) error {
	_, err := call(c, routeRemoveFile, fileReq{client, password, filename})
	return err
}

// GetRange fetches a byte range of a file.
func (c *Client) GetRange(client, password, filename string, offset, length int) ([]byte, error) {
	return call(c, routeGetRange, rangeReq{fileReq{client, password, filename}, offset, length})
}

// ChunkCount asks how many chunks a file has.
func (c *Client) ChunkCount(client, password, filename string) (int, error) {
	out, err := into[map[string]int](call(c, routeChunkCount, fileReq{client, password, filename}))
	return out["chunks"], err
}

// Scrub triggers an integrity pass on every distributor and sums the
// reports.
func (c *Client) Scrub() (core.ScrubReport, error) {
	return merged[core.ScrubReport](c, routeScrub, nil)
}

// Decommission evacuates the provider at the given fleet index.
func (c *Client) Decommission(providerIndex int) (core.DecommissionReport, error) {
	return into[core.DecommissionReport](call(c, routeDecommission, decommissionReq{ProviderIndex: providerIndex}))
}

// ProviderTable fetches Table I.
func (c *Client) ProviderTable() ([]core.ProviderRow, error) {
	return into[[]core.ProviderRow](c.exchange(routeProviderTable, fileReq{}, nil))
}

// ClientTable fetches Table II.
func (c *Client) ClientTable() ([]core.ClientRow, error) {
	return into[[]core.ClientRow](c.exchange(routeClientTable, fileReq{}, nil))
}

// ChunkTable fetches Table III.
func (c *Client) ChunkTable() ([]core.ChunkRow, error) {
	return into[[]core.ChunkRow](c.exchange(routeChunkTable, fileReq{}, nil))
}

// Stats fetches placement statistics, summed across shards except
// Clients, which is replicated state: the largest shard's count.
// PerProvider counts concatenate in shard order: each shard owns its own
// provider fleet, so the indices are per-shard, not a shared space.
func (c *Client) Stats() (core.Stats, error) {
	clients := 0
	return merged(c, routeStats, func(total *core.Stats, part core.Stats) {
		clients = max(clients, part.Clients)
		total.Clients = clients
	})
}

// Metrics fetches the operation counters, summed across shards.
func (c *Client) Metrics() (core.OpMetrics, error) {
	return merged[core.OpMetrics](c, routeMetrics, nil)
}

// HealthReport fetches the full /v1/health body. Over several shards the
// reports merge: the status degrades if any shard's does (or the shard
// is unreachable, which is all an error means here), provider rows
// concatenate in shard order, cache and WAL counters add, and the
// checkpoint age is the stalest shard's.
func (c *Client) HealthReport() (core.HealthReport, error) {
	status, age := "ok", int64(0)
	out, err := merged(c, routeHealth, func(_ *core.HealthReport, part core.HealthReport) {
		if part.Status != "ok" {
			status = "degraded"
		}
		age = max(age, part.WAL.LastCheckpointAgeMs)
	})
	if len(c.urls) == 1 {
		return out, err
	}
	if err != nil {
		status = "degraded"
	}
	out.Status, out.WAL.LastCheckpointAgeMs = status, age
	return out, nil
}

// Health probes every distributor; a degraded status (a provider down
// or a circuit not closed) is still a healthy endpoint, so only
// transport failures and an empty status are errors. Each probe is one
// attempt under its own short deadline instead of the client's
// transfer-sized timeout: liveness polling must answer quickly even when
// a distributor is wedged mid-transfer.
func (c *Client) Health() error {
	return c.eachShard(func(base string) error {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		defer cancel()
		out, err := into[core.HealthReport](c.once(ctx, base, routeHealth, nil))
		if err == nil && out.Status == "" {
			err = fmt.Errorf("transport: distributor unhealthy: %+v", out)
		}
		return err
	})
}
