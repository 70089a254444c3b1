package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/privacy"
	"repro/internal/provider"
)

// probeTimeout caps one health probe round-trip. Probes share the blob
// transfers' connections, whose 10s default timeout is sized for
// multi-megabyte payloads; a liveness check that waits that long on a
// stalled provider is itself the outage, so each probe carries its own
// short deadline. It is also the shortest interval between the
// background probes a down provider's Down() calls start.
const probeTimeout = time.Second

// maxBlobRead bounds a chunk body on the provider hop, in both
// directions: what Get accepts in a response and what the provider
// server accepts in a put. It is a variable (normally maxBlobBytes) only
// so tests can lower it without moving a 64 MiB body.
var maxBlobRead int64 = maxBlobBytes

// chunkPath is the single-blob routes' path; the key follows it.
const chunkPath = "/v1/chunks/"

// RemoteProvider is a provider.Provider backed by a ProviderServer over
// HTTP, letting a distributor treat a networked provider exactly like an
// in-process one. Every call is one exchange (provider_hop.go).
type RemoteProvider struct {
	hop   *hop
	info  provider.Info
	retry *retrier

	// down is the last known liveness, which is all Down() reads. Every
	// data-plane call writes it with its own outcome (withNetRetry), as do
	// a successful SetOutage and every Probe; a dial that succeeded starts
	// it up.
	down atomic.Bool
	// lastKick is when (UnixNano) Down() last started a background probe.
	lastKick atomic.Int64
}

var _ provider.Provider = (*RemoteProvider)(nil)

// DialProvider connects to a provider server and caches its identity.
// Of client it reads only Timeout, each call's deadline (0: none); a nil
// client gets 10s. The connections are the provider's own pool
// (provider_hop.go).
func DialProvider(baseURL string, client *http.Client) (*RemoteProvider, error) {
	timeout := 10 * time.Second
	if client != nil {
		timeout = client.Timeout
	}
	h, err := newHop(baseURL, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial provider: %w", err)
	}
	rp := &RemoteProvider{hop: h, retry: newRetrier()}
	var dto infoDTO
	if err := rp.getJSON("/v1/info", &dto); err != nil {
		return nil, fmt.Errorf("transport: dial provider: %w", err)
	}
	rp.info = provider.Info{Name: dto.Name, PL: privacy.Level(dto.PL), CL: privacy.CostLevel(dto.CL)}
	return rp, nil
}

// Info returns the identity cached at dial time.
func (rp *RemoteProvider) Info() provider.Info { return rp.info }

// withNetRetry runs op with jittered exponential backoff on failures at
// the network layer (no HTTP response at all). Provider operations are
// key-addressed and idempotent — re-putting the same blob, re-getting,
// or re-deleting a key cannot double-apply — so retrying is always safe
// here. Server-status errors are returned without retry: the provider
// answered, and the distributor's own transient-retry and circuit
// breaker handle those.
//
// Every attempt's outcome is also the provider's liveness as last known:
// no response, or a 503, reads ErrOutage and means down; any other
// response, an error status included, means the provider is answering.
func (rp *RemoteProvider) withNetRetry(op func() (netFail bool, err error)) error {
	for attempt := 0; ; attempt++ {
		netFail, err := op()
		rp.down.Store(errors.Is(err, provider.ErrOutage))
		if err == nil || !netFail || attempt >= netRetries-1 {
			return err
		}
		rp.retry.sleep(rp.retry.backoff(attempt))
	}
}

// replyError reads one exchange's outcome on withNetRetry's terms: no
// reply is a network failure, read as ErrOutage; a reply is the
// provider's answer, 200 and 204 meaning success.
func replyError(status int, body []byte, err error) (netFail bool, _ error) {
	switch {
	case status == 0:
		return true, fmt.Errorf("%w: %v", provider.ErrOutage, err)
	case err != nil:
		return false, err
	case status == http.StatusOK || status == http.StatusNoContent:
		return false, nil
	}
	return false, providerErrorOf(status, body)
}

// Put stores data under key.
func (rp *RemoteProvider) Put(key string, data []byte) error {
	return rp.withNetRetry(func() (bool, error) {
		return replyError(rp.hop.exchange(&hopRequest{method: http.MethodPut, path: chunkPath, key: key, body: data}))
	})
}

// Get fetches the value under key. A declared-length body is read into a
// pooled buffer (bufpool), which the caller owns: a reader that is done
// with the blob may hand it back, one that is not leaves it to the GC.
func (rp *RemoteProvider) Get(key string) ([]byte, error) {
	var data []byte
	err := rp.withNetRetry(func() (bool, error) {
		status, body, err := rp.hop.exchange(&hopRequest{method: http.MethodGet, path: chunkPath, key: key, limit: maxBlobRead, get: bufpool.Get})
		// A blob past the cap, or one that stops short of its declared
		// length, must fail here: handed back cut off it would surface
		// later as an inexplicable length or checksum mismatch far from
		// the cause.
		switch {
		case status != 0 && errors.Is(err, errOversizeBody):
			return false, fmt.Errorf("transport: blob %q exceeds %d-byte limit", key, maxBlobRead)
		case status != 0 && err != nil:
			return false, fmt.Errorf("transport: blob %q: %w", key, err)
		case status == http.StatusOK:
			data = body
			return false, nil
		}
		return replyError(status, body, err)
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Delete removes key.
func (rp *RemoteProvider) Delete(key string) error {
	return rp.withNetRetry(func() (bool, error) {
		return replyError(rp.hop.exchange(&hopRequest{method: http.MethodDelete, path: chunkPath, key: key}))
	})
}

// Down reports the provider's last known liveness from memory, without
// a round trip: placement calls it for every provider under the
// distributor's table lock. While that state is down it starts a
// background Probe, at most one per probeTimeout, so a provider nothing
// is being sent to is found again once it answers; a healthy provider
// costs no goroutine and no request.
func (rp *RemoteProvider) Down() bool {
	if !rp.down.Load() {
		return false
	}
	now := time.Now().UnixNano()
	if last := rp.lastKick.Load(); now-last >= int64(probeTimeout) && rp.lastKick.CompareAndSwap(last, now) {
		go rp.Probe() // returns within probeTimeout
	}
	return true
}

// Probe asks the health endpoint for a fresh answer, waits at most
// probeTimeout for it, records it as the last known state and returns it
// (true = down). Any failure — including the deadline expiring against a
// stalled provider — counts as down.
func (rp *RemoteProvider) Probe() bool {
	down := rp.probe()
	rp.down.Store(down)
	return down
}

func (rp *RemoteProvider) probe() bool {
	status, _, err := rp.hop.exchange(&hopRequest{method: http.MethodGet, path: "/v1/health", timeout: probeTimeout})
	return err != nil || status != http.StatusOK
}

// SetOutage toggles the remote failure-injection switch; errors are
// swallowed (the control plane is best-effort in simulations). A switch
// the provider acknowledged is also its last known liveness.
func (rp *RemoteProvider) SetOutage(down bool) {
	body, _ := json.Marshal(map[string]bool{"down": down})
	status, _, err := rp.hop.exchange(&hopRequest{method: http.MethodPost, path: "/v1/outage", body: body})
	if err == nil && status == http.StatusNoContent {
		rp.down.Store(down)
	}
}

// Keys lists stored keys; nil on transport failure.
func (rp *RemoteProvider) Keys() []string {
	var keys []string
	if err := rp.getJSON("/v1/keys", &keys); err != nil {
		return nil
	}
	return keys
}

// Len returns the number of stored keys.
func (rp *RemoteProvider) Len() int { return len(rp.Keys()) }

// Dump returns the remote provider's complete contents.
func (rp *RemoteProvider) Dump() map[string][]byte {
	var d map[string][]byte
	if err := rp.getJSON("/v1/dump", &d); err != nil {
		return nil
	}
	return d
}

// Usage returns remote billing counters.
func (rp *RemoteProvider) Usage() provider.Usage {
	var u provider.Usage
	_ = rp.getJSON("/v1/usage", &u)
	return u
}

func (rp *RemoteProvider) getJSON(path string, v any) error {
	status, body, err := rp.hop.exchange(&hopRequest{method: http.MethodGet, path: path, limit: maxListingRead})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("transport: %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

// providerErrorOf is providerStatus's inverse: the provider error a
// status and its message text stand for, whether they arrived as a
// response of their own or as one item of a multi-get reply.
func providerErrorOf(status int, msg []byte) error {
	msg = bytes.TrimSpace(msg)
	switch status {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", provider.ErrNotFound, msg)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", provider.ErrOutage, msg)
	case http.StatusBadGateway:
		return fmt.Errorf("%w: %s", provider.ErrInjected, msg)
	default:
		return fmt.Errorf("transport: provider status %d: %s", status, msg)
	}
}
