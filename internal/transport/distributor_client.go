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
// links against instead of talking to cloud providers directly.
// Idempotent requests (reads, table fetches) are retried with jittered
// exponential backoff on network errors; mutations are never retried at
// this layer, since a request that died on the wire may still have been
// applied.
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

// statusToCoreError reverses the server's error mapping so callers can use
// errors.Is against the core error values across the wire.
func statusToCoreError(status int, msg string) error {
	msg = strings.TrimSpace(msg)
	switch status {
	case http.StatusForbidden:
		return fmt.Errorf("%w: %s", core.ErrAuth, msg)
	case http.StatusNotFound:
		if strings.Contains(msg, "snapshot") {
			return fmt.Errorf("%w: %s", core.ErrNoSnapshot, msg)
		}
		if strings.Contains(msg, "chunk") || strings.Contains(msg, "serial") {
			return fmt.Errorf("%w: %s", core.ErrNoSuchChunk, msg)
		}
		return fmt.Errorf("%w: %s", core.ErrNoSuchFile, msg)
	case http.StatusConflict:
		if strings.Contains(msg, "concurrent") {
			return fmt.Errorf("%w: %s", core.ErrConflict, msg)
		}
		return fmt.Errorf("%w: %s", core.ErrExists, msg)
	case http.StatusRequestedRangeNotSatisfiable:
		return fmt.Errorf("%w: %s", core.ErrRange, msg)
	case http.StatusInsufficientStorage:
		return fmt.Errorf("%w: %s", core.ErrPlacement, msg)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", core.ErrUnavailable, msg)
	case http.StatusBadRequest:
		return fmt.Errorf("%w: %s", core.ErrConfig, msg)
	default:
		return fmt.Errorf("transport: distributor status %d: %s", status, msg)
	}
}

// post sends a JSON body once and returns the raw response payload.
func (c *Client) post(path string, req any) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return c.postOnce(path, body)
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

func (c *Client) postOnce(path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(path, req)
}

// do sends req once and returns the response payload, read under the
// metadata cap; a non-2xx status comes back as the core error it names.
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
		return nil, statusToCoreError(resp.StatusCode, string(payload))
	}
	return payload, nil
}

// postIdempotent is post with network-error retry, for read-only
// endpoints where replaying the request cannot double-apply anything.
// A fresh reader is built per attempt, so partially consumed bodies
// never poison a retry.
func (c *Client) postIdempotent(path string, req any) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var payload []byte
	for attempt := 0; ; attempt++ {
		payload, err = c.postOnce(path, body)
		if err == nil || !isNetworkError(err) || attempt >= netRetries-1 {
			return payload, err
		}
		c.retry.sleep(c.retry.backoff(attempt))
	}
}

func (c *Client) getJSON(path string, v any) error {
	var lastErr error
	for attempt := 0; attempt < netRetries; attempt++ {
		if attempt > 0 {
			c.retry.sleep(c.retry.backoff(attempt - 1))
		}
		resp, err := c.http.Get(c.base + path)
		if err != nil {
			lastErr = &netError{fmt.Errorf("transport: %s: %w", path, err)}
			continue
		}
		payload, err := readResponse(path, resp)
		resp.Body.Close()
		if isNetworkError(err) {
			// Mid-body transport failure. These GETs are read-only, so
			// replaying the request is exactly as safe as retrying one
			// that never connected.
			lastErr = err
			continue
		}
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			if len(payload) > 512 {
				payload = payload[:512]
			}
			return statusToCoreError(resp.StatusCode, string(payload))
		}
		return json.Unmarshal(payload, v)
	}
	return lastErr
}

// RegisterClient creates a client account on the distributor.
func (c *Client) RegisterClient(name string) error {
	_, err := c.post("/v1/clients", clientReq{Name: name})
	return err
}

// AddPassword registers a ⟨password, PL⟩ pair.
func (c *Client) AddPassword(client, password string, pl privacy.Level) error {
	_, err := c.post("/v1/passwords", passwordReq{Client: client, Password: password, PL: int(pl)})
	return err
}

// UploadOptions is core.UploadOptions: the wire carries every field
// (write.go), so the client takes the distributor's own type.
type UploadOptions = core.UploadOptions

// GetChunk fetches one chunk by (filename, serial).
func (c *Client) GetChunk(client, password, filename string, serial int) ([]byte, error) {
	return c.postIdempotent("/v1/get_chunk", chunkReq{Client: client, Password: password, Filename: filename, Serial: serial})
}

// GetFile fetches a whole file.
func (c *Client) GetFile(client, password, filename string) ([]byte, error) {
	return c.postIdempotent("/v1/get_file", fileReq{Client: client, Password: password, Filename: filename})
}

// GetSnapshot fetches a chunk's pre-modification state.
func (c *Client) GetSnapshot(client, password, filename string, serial int) ([]byte, error) {
	return c.postIdempotent("/v1/get_snapshot", chunkReq{Client: client, Password: password, Filename: filename, Serial: serial})
}

// RemoveChunk deletes one chunk.
func (c *Client) RemoveChunk(client, password, filename string, serial int) error {
	_, err := c.post("/v1/remove_chunk", chunkReq{Client: client, Password: password, Filename: filename, Serial: serial})
	return err
}

// RemoveFile deletes a file.
func (c *Client) RemoveFile(client, password, filename string) error {
	_, err := c.post("/v1/remove_file", fileReq{Client: client, Password: password, Filename: filename})
	return err
}

// GetRange fetches a byte range of a file.
func (c *Client) GetRange(client, password, filename string, offset, length int) ([]byte, error) {
	return c.postIdempotent("/v1/get_range", rangeReq{Client: client, Password: password, Filename: filename, Offset: offset, Length: length})
}

// Scrub triggers a distributor-wide integrity pass.
func (c *Client) Scrub() (core.ScrubReport, error) {
	payload, err := c.post("/v1/admin/scrub", struct{}{})
	if err != nil {
		return core.ScrubReport{}, err
	}
	var rep core.ScrubReport
	if err := json.Unmarshal(payload, &rep); err != nil {
		return core.ScrubReport{}, err
	}
	return rep, nil
}

// Decommission evacuates the provider at the given fleet index.
func (c *Client) Decommission(providerIndex int) (core.DecommissionReport, error) {
	payload, err := c.post("/v1/admin/decommission", decommissionReq{ProviderIndex: providerIndex})
	if err != nil {
		return core.DecommissionReport{}, err
	}
	var rep core.DecommissionReport
	if err := json.Unmarshal(payload, &rep); err != nil {
		return core.DecommissionReport{}, err
	}
	return rep, nil
}

// ChunkCount asks how many chunks a file has.
func (c *Client) ChunkCount(client, password, filename string) (int, error) {
	payload, err := c.postIdempotent("/v1/chunk_count", fileReq{Client: client, Password: password, Filename: filename})
	if err != nil {
		return 0, err
	}
	var out map[string]int
	if err := json.Unmarshal(payload, &out); err != nil {
		return 0, err
	}
	return out["chunks"], nil
}

// ProviderTable fetches Table I.
func (c *Client) ProviderTable() ([]core.ProviderRow, error) {
	var rows []core.ProviderRow
	err := c.getJSON("/v1/tables/providers", &rows)
	return rows, err
}

// ClientTable fetches Table II.
func (c *Client) ClientTable() ([]core.ClientRow, error) {
	var rows []core.ClientRow
	err := c.getJSON("/v1/tables/clients", &rows)
	return rows, err
}

// ChunkTable fetches Table III.
func (c *Client) ChunkTable() ([]core.ChunkRow, error) {
	var rows []core.ChunkRow
	err := c.getJSON("/v1/tables/chunks", &rows)
	return rows, err
}

// Stats fetches distributor statistics.
func (c *Client) Stats() (core.Stats, error) {
	var s core.Stats
	err := c.getJSON("/v1/stats", &s)
	return s, err
}

// Metrics fetches the distributor's operation counters.
func (c *Client) Metrics() (core.OpMetrics, error) {
	var m core.OpMetrics
	err := c.getJSON("/v1/metrics", &m)
	return m, err
}

// Health probes the distributor; a degraded status (any circuit not
// closed) is still a healthy endpoint, so only transport failures and
// an empty status are errors. The probe carries its own short deadline
// instead of the client's transfer-sized timeout: liveness polling must
// answer quickly even when the distributor is wedged mid-transfer.
func (c *Client) Health() error {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/health", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("transport: /v1/health: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("transport: /v1/health: status %d", resp.StatusCode)
	}
	var out HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if out.Status == "" {
		return fmt.Errorf("transport: distributor unhealthy: %+v", out)
	}
	return nil
}

// ProviderHealth fetches the per-provider circuit-breaker view.
func (c *Client) ProviderHealth() ([]core.ProviderHealth, error) {
	var out HealthReport
	if err := c.getJSON("/v1/health", &out); err != nil {
		return nil, err
	}
	return out.Providers, nil
}

// CacheHealth fetches the distributor's chunk-cache counters; a zero
// Capacity means caching is disabled.
func (c *Client) CacheHealth() (core.CacheStats, error) {
	var out HealthReport
	if err := c.getJSON("/v1/health", &out); err != nil {
		return core.CacheStats{}, err
	}
	return out.Cache, nil
}

// HealthReport fetches the full /v1/health body, including the
// replication-lag section when the server fronts a cluster.
func (c *Client) HealthReport() (HealthReport, error) {
	var out HealthReport
	if err := c.getJSON("/v1/health", &out); err != nil {
		return HealthReport{}, err
	}
	return out, nil
}
