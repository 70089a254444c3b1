package transport

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// This file is the wire form of the streaming data plane. The JSON
// endpoints carry payloads base64-encoded inside a fully buffered body,
// which is the right shape for chunk-sized messages and exactly the
// wrong one for large objects: the client, the server and the JSON
// codec would each hold the whole file, and the transfer caps
// (maxBlobBytes / maxRespRead) bound message size on purpose. The
// stream endpoints instead move raw octets over chunked transfer
// encoding end-to-end — the request body feeds core.UploadStream and
// core.GetFileTo feeds the response writer, so neither side ever
// materializes the file and the whole-body caps do not apply (the file
// path only; every metadata endpoint keeps its cap).
//
// Scalar parameters ride in the query string; the password and the
// optional encryption key ride in base64 headers (X-Password,
// X-Encrypt-Key) so arbitrary bytes survive HTTP header rules and never
// land in server access logs as query noise.

const (
	headerPassword   = "X-Password"
	headerEncryptKey = "X-Encrypt-Key"
)

// ---- Server side ----

func headerB64(r *http.Request, name string) ([]byte, error) {
	v := r.Header.Get(name)
	if v == "" {
		return nil, nil
	}
	b, err := base64.StdEncoding.DecodeString(v)
	if err != nil {
		return nil, fmt.Errorf("bad %s header: %w", name, err)
	}
	return b, nil
}

// streamUpload is POST /v1/stream/upload: the request body is the file.
func (s *DistributorServer) streamUpload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	pl, err := strconv.Atoi(q.Get("pl"))
	if err != nil {
		http.Error(w, "bad pl: "+err.Error(), http.StatusBadRequest)
		return
	}
	opts := core.UploadOptions{NoParity: q.Get("noParity") == "1"}
	if v := q.Get("assurance"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad assurance: "+err.Error(), http.StatusBadRequest)
			return
		}
		opts.Assurance = raid.Level(n)
	}
	if v := q.Get("misleadFraction"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			http.Error(w, "bad misleadFraction: "+err.Error(), http.StatusBadRequest)
			return
		}
		opts.MisleadFraction = f
	}
	if v := q.Get("replicas"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "bad replicas: "+err.Error(), http.StatusBadRequest)
			return
		}
		opts.Replicas = n
	}
	password, err := headerB64(r, headerPassword)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, err := headerB64(r, headerEncryptKey)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts.EncryptKey = key
	info, err := s.d.UploadStream(q.Get("client"), string(password), q.Get("filename"),
		r.Body, privacy.Level(pl), opts)
	if err != nil {
		http.Error(w, err.Error(), coreStatus(err))
		return
	}
	writeJSON(w, info)
}

// countingWriter tracks whether any payload byte reached the response.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// streamFile is GET /v1/stream/file: the response body is the file.
// Chunked transfer encoding carries an implicit end-of-stream marker, so
// a failure after bytes have gone out aborts the connection instead of
// letting a truncated prefix masquerade as a complete body — the client
// observes a transport error, exactly like a mid-body network failure.
func (s *DistributorServer) streamFile(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	password, err := headerB64(r, headerPassword)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cw := &countingWriter{w: w}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := s.d.GetFileTo(cw, q.Get("client"), string(password), q.Get("filename")); err != nil {
		if cw.n == 0 {
			http.Error(w, err.Error(), coreStatus(err))
			return
		}
		panic(http.ErrAbortHandler)
	}
}

// ---- Client side ----

func (c *Client) streamQuery(client, filename string) url.Values {
	q := url.Values{}
	q.Set("client", client)
	q.Set("filename", filename)
	return q
}

// UploadFrom streams a file to the distributor from r without buffering
// it: the reader feeds the request body directly and the distributor
// commits stripe-by-stripe with bounded memory at both ends. Like every
// mutation, it is never retried at this layer — a body is not rewindable
// and a request that died on the wire may still have been applied.
func (c *Client) UploadFrom(client, password, filename string, r io.Reader, pl privacy.Level, opts UploadOptions) (core.FileInfo, error) {
	q := c.streamQuery(client, filename)
	q.Set("pl", strconv.Itoa(int(pl)))
	if opts.Assurance != 0 {
		q.Set("assurance", strconv.Itoa(int(opts.Assurance)))
	}
	if opts.NoParity {
		q.Set("noParity", "1")
	}
	if opts.MisleadFraction != 0 {
		q.Set("misleadFraction", strconv.FormatFloat(opts.MisleadFraction, 'g', -1, 64))
	}
	if opts.Replicas != 0 {
		q.Set("replicas", strconv.Itoa(opts.Replicas))
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/stream/upload?"+q.Encode(), r)
	if err != nil {
		return core.FileInfo{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(headerPassword, base64.StdEncoding.EncodeToString([]byte(password)))
	if len(opts.EncryptKey) > 0 {
		req.Header.Set(headerEncryptKey, base64.StdEncoding.EncodeToString(opts.EncryptKey))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return core.FileInfo{}, &netError{fmt.Errorf("transport: /v1/stream/upload: %w", err)}
	}
	defer resp.Body.Close()
	// The response is a small JSON document (FileInfo or an error body),
	// so the usual metadata cap applies here even though the request body
	// was unbounded.
	payload, err := readResponse("/v1/stream/upload", resp)
	if err != nil {
		return core.FileInfo{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return core.FileInfo{}, statusToCoreError(resp.StatusCode, string(payload))
	}
	var info core.FileInfo
	if err := json.Unmarshal(payload, &info); err != nil {
		return core.FileInfo{}, err
	}
	return info, nil
}

// GetFileTo streams a whole file from the distributor into w. The body
// is copied through a fixed-size buffer — deliberately not subject to
// maxRespRead, which caps buffered metadata responses, not the file
// path. A connection abort mid-body (the server's mid-stream failure
// signal) surfaces as an error with the prefix byte count; the transfer
// is not retried, since w has already consumed bytes that a replay would
// duplicate.
func (c *Client) GetFileTo(w io.Writer, client, password, filename string) (int64, error) {
	q := c.streamQuery(client, filename)
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/stream/file?"+q.Encode(), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(headerPassword, base64.StdEncoding.EncodeToString([]byte(password)))
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, &netError{fmt.Errorf("transport: /v1/stream/file: %w", err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, statusToCoreError(resp.StatusCode, string(errorText(resp, 4096)))
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		return n, &netError{fmt.Errorf("transport: /v1/stream/file: truncated after %d bytes: %w", n, err)}
	}
	return n, nil
}
