package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
)

// Client is a Go client for a DistributorServer — what an application
// links against instead of talking to cloud providers directly. Every
// method is one row of the route table (routes.go) plus its typed
// arguments: the row says how the request is sent and whether it may be
// replayed after a network error.
type Client struct {
	base  string
	http  *http.Client
	retry *retrier
}

// NewClient creates a distributor client. A nil hc gets a default
// client backed by the shared pooled transport (see pool.go), so warm
// connections survive bursts instead of re-dialing.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = defaultHTTPClient(30 * time.Second)
	}
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		http:  hc,
		retry: newRetrier(),
	}
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

// once sends one attempt of a JSON-or-bodiless request on rt. A fresh
// reader is built per attempt, so a partially consumed body never
// poisons a retry.
func (c *Client) once(ctx context.Context, rt *route, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, rt.method, c.base+rt.path, bytes.NewReader(body))
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
func (c *Client) send(rt *route, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		payload, err := c.once(context.Background(), rt, body)
		if !rt.retry || !isNetworkError(err) || attempt >= netRetries-1 {
			return payload, err
		}
		c.retry.sleep(c.retry.backoff(attempt))
	}
}

// call sends q, the route's own DTO, as the JSON request.
func call[Req any](c *Client, rt routeOf[Req], q Req) ([]byte, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	return c.send(rt.route, body)
}

// into decodes a JSON reply.
func into[T any](payload []byte, err error) (T, error) {
	var v T
	if err == nil {
		err = json.Unmarshal(payload, &v)
	}
	return v, err
}

// RegisterClient creates a client account on the distributor.
func (c *Client) RegisterClient(name string) error {
	_, err := call(c, routeRegister, clientReq{Name: name})
	return err
}

// AddPassword registers a ⟨password, PL⟩ pair.
func (c *Client) AddPassword(client, password string, pl privacy.Level) error {
	_, err := call(c, routeAddPassword, passwordReq{Client: client, Password: password, PL: int(pl)})
	return err
}

// UploadOptions is core.UploadOptions: the wire carries every field
// (write.go), so the client takes the distributor's own type.
type UploadOptions = core.UploadOptions

// GetChunk fetches one chunk by (filename, serial).
func (c *Client) GetChunk(client, password, filename string, serial int) ([]byte, error) {
	return call(c, routeGetChunk, chunkReq{Client: client, Password: password, Filename: filename, Serial: serial})
}

// GetFile fetches a whole file.
func (c *Client) GetFile(client, password, filename string) ([]byte, error) {
	return call(c, routeGetFile, fileReq{Client: client, Password: password, Filename: filename})
}

// GetSnapshot fetches a chunk's pre-modification state.
func (c *Client) GetSnapshot(client, password, filename string, serial int) ([]byte, error) {
	return call(c, routeGetSnapshot, chunkReq{Client: client, Password: password, Filename: filename, Serial: serial})
}

// RemoveChunk deletes one chunk.
func (c *Client) RemoveChunk(client, password, filename string, serial int) error {
	_, err := call(c, routeRemoveChunk, chunkReq{Client: client, Password: password, Filename: filename, Serial: serial})
	return err
}

// RemoveFile deletes a file.
func (c *Client) RemoveFile(client, password, filename string) error {
	_, err := call(c, routeRemoveFile, fileReq{Client: client, Password: password, Filename: filename})
	return err
}

// GetRange fetches a byte range of a file.
func (c *Client) GetRange(client, password, filename string, offset, length int) ([]byte, error) {
	return call(c, routeGetRange, rangeReq{Client: client, Password: password, Filename: filename, Offset: offset, Length: length})
}

// ChunkCount asks how many chunks a file has.
func (c *Client) ChunkCount(client, password, filename string) (int, error) {
	out, err := into[map[string]int](call(c, routeChunkCount, fileReq{Client: client, Password: password, Filename: filename}))
	return out["chunks"], err
}

// Scrub triggers a distributor-wide integrity pass.
func (c *Client) Scrub() (core.ScrubReport, error) {
	return into[core.ScrubReport](c.send(routeScrub, nil))
}

// Decommission evacuates the provider at the given fleet index.
func (c *Client) Decommission(providerIndex int) (core.DecommissionReport, error) {
	return into[core.DecommissionReport](call(c, routeDecommission, decommissionReq{ProviderIndex: providerIndex}))
}

// ProviderTable fetches Table I.
func (c *Client) ProviderTable() ([]core.ProviderRow, error) {
	return into[[]core.ProviderRow](c.send(routeProviderTable, nil))
}

// ClientTable fetches Table II.
func (c *Client) ClientTable() ([]core.ClientRow, error) {
	return into[[]core.ClientRow](c.send(routeClientTable, nil))
}

// ChunkTable fetches Table III.
func (c *Client) ChunkTable() ([]core.ChunkRow, error) {
	return into[[]core.ChunkRow](c.send(routeChunkTable, nil))
}

// Stats fetches distributor statistics.
func (c *Client) Stats() (core.Stats, error) {
	return into[core.Stats](c.send(routeStats, nil))
}

// Metrics fetches the distributor's operation counters.
func (c *Client) Metrics() (core.OpMetrics, error) {
	return into[core.OpMetrics](c.send(routeMetrics, nil))
}

// HealthReport fetches the full /v1/health body, including the
// replication-lag section when the server fronts a cluster.
func (c *Client) HealthReport() (HealthReport, error) {
	return into[HealthReport](c.send(routeHealth, nil))
}

// Health probes the distributor; a degraded status (a provider down or
// a circuit not closed) is still a healthy endpoint, so only transport
// failures and an empty status are errors. The probe is one attempt
// under its own short deadline instead of the client's transfer-sized
// timeout: liveness polling must answer quickly even when the
// distributor is wedged mid-transfer.
func (c *Client) Health() error {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	out, err := into[HealthReport](c.once(ctx, routeHealth, nil))
	if err == nil && out.Status == "" {
		err = fmt.Errorf("transport: distributor unhealthy: %+v", out)
	}
	return err
}

// ProviderHealth fetches the per-provider circuit-breaker view.
func (c *Client) ProviderHealth() ([]core.ProviderHealth, error) {
	out, err := c.HealthReport()
	return out.Providers, err
}
