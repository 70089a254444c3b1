package transport

import (
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// This file is the read side of the streaming data plane; write.go has
// the write side. routeStreamFile moves raw octets over chunked
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

// streamFile is routeStreamFile's handler: the response body is the file.
// Chunked transfer encoding carries an implicit end-of-stream marker, so
// a failure after bytes have gone out aborts the connection instead of
// letting a truncated prefix masquerade as a complete body — the client
// observes a transport error, exactly like a mid-body network failure.
func (s *DistributorServer) streamFile(w http.ResponseWriter, r *http.Request) (any, error) {
	q := r.URL.Query()
	password, err := headerB64(r, headerPassword)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	cw := &countingWriter{w: w}
	w.Header().Set("Content-Type", octetStream)
	_, err = s.d.GetFileTo(cw, q.Get("client"), string(password), q.Get("filename"))
	if err != nil && cw.n > 0 {
		panic(http.ErrAbortHandler)
	}
	return nil, err
}

// GetFileTo streams a whole file from its owning shard into w. The body
// is copied through a fixed-size buffer — deliberately not subject to
// maxRespRead, which caps buffered metadata responses, not the file
// path. A connection abort mid-body (the server's mid-stream failure
// signal) surfaces as an error with the prefix byte count; the transfer
// is not retried, since w has already consumed bytes that a replay would
// duplicate.
func (c *Client) GetFileTo(w io.Writer, client, password, filename string) (int64, error) {
	q := url.Values{"client": {client}, "filename": {filename}}
	rt := routeStreamFile
	req, err := http.NewRequest(rt.method, c.owner(client, filename)+rt.path+"?"+q.Encode(), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(headerPassword, base64.StdEncoding.EncodeToString([]byte(password)))
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, &netError{fmt.Errorf("transport: %s: %w", rt.path, err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, errorFrom(rt.path, resp, errorText(resp, 4096))
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		return n, &netError{fmt.Errorf("transport: %s: truncated after %d bytes: %w", rt.path, n, err)}
	}
	return n, nil
}
