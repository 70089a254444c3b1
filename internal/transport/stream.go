package transport

import (
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// This file is the read side of the streaming data plane; write.go has
// the write side. GET /v1/stream/file moves raw octets over chunked
// transfer encoding end-to-end — core.GetFileTo feeds the response
// writer, so neither side ever materializes the file and the whole-body
// caps (maxBlobBytes / maxRespRead) do not apply.

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

// GetFileTo streams a whole file from the distributor into w. The body
// is copied through a fixed-size buffer — deliberately not subject to
// maxRespRead, which caps buffered metadata responses, not the file
// path. A connection abort mid-body (the server's mid-stream failure
// signal) surfaces as an error with the prefix byte count; the transfer
// is not retried, since w has already consumed bytes that a replay would
// duplicate.
func (c *Client) GetFileTo(w io.Writer, client, password, filename string) (int64, error) {
	q := url.Values{"client": {client}, "filename": {filename}}
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
