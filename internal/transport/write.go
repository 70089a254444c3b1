package transport

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// This file is the wire form of the two payload-carrying routes
// (routeUpload and routeUpdateChunk). Their body is the payload itself,
// raw application/octet-stream octets written from the caller's slice or
// reader — never a JSON document, so no byte of a file is base64-coded,
// quoted or copied by a codec on this hop. Everything else is
// parameters, one codec for both (postOctets writes it, parseWrite reads
// it):
//
//   - the routing keys client and filename, the route's own scalar (pl,
//     or serial for an update) and the upload options ride in the query
//     string, so a proxy routes without touching the body;
//   - the password and the optional encryption key ride in base64 headers
//     (X-Password, X-Encrypt-Key), so arbitrary bytes survive HTTP header
//     rules and never land in access logs as query noise;
//   - MisleadLines, which can outweigh the file, go ahead of the payload
//     in the body as a preamble — each line a uvarint length and its
//     bytes — whose total byte length the query declares (preamble=N):
//     the server cuts it off the front, a proxy relays it unparsed.
//
// An upload's payload feeds core.UploadStream as it arrives, so only its
// preamble is bounded. An update's payload is one chunk, read whole:
// preamble and chunk together are capped at maxBlobRead, and a declared
// excess is refused before a byte is read.

const (
	headerPassword   = "X-Password"
	headerEncryptKey = "X-Encrypt-Key"
	octetStream      = "application/octet-stream"
)

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

// appendLines encodes the MisleadLines preamble; parseLines is its
// inverse and returns lines that alias pre.
func appendLines(dst []byte, lines [][]byte) []byte {
	for _, l := range lines {
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		dst = append(dst, l...)
	}
	return dst
}

func parseLines(pre []byte) ([][]byte, error) {
	var lines [][]byte
	for len(pre) > 0 {
		n, w := binary.Uvarint(pre)
		if w <= 0 || n > uint64(len(pre)-w) {
			return nil, errors.New("malformed mislead-lines preamble")
		}
		lines = append(lines, pre[w:w+int(n)])
		pre = pre[w+int(n):]
	}
	return lines, nil
}

// ---- Server side ----

// writeParams is the parameter part of a payload-carrying request.
type writeParams struct {
	client, password, filename string
	pl, serial                 int
	preamble                   int64 // body bytes parseWrite consumed ahead of the payload
	opts                       core.UploadOptions
}

// parseWrite decodes a payload-carrying request's parameters and reads
// the preamble off r.Body, leaving the payload. required names the
// scalar the route cannot do without ("pl" or "serial"). It refuses with
// 415 a body that is not octets — a JSON document from a client of the
// old wire form is refused by name, never mis-parsed as a file — with 413
// an over-cap preamble, with 400 anything else.
func parseWrite(r *http.Request, required string) (p writeParams, err error) {
	fail := func(status int, format string, args ...any) (writeParams, error) {
		return writeParams{}, &httpError{status, fmt.Sprintf(format, args...)}
	}
	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct != octetStream {
		return fail(http.StatusUnsupportedMediaType,
			"%s takes the payload as a raw %s body, parameters in the query and the %s header; got Content-Type %q",
			r.URL.Path, octetStream, headerPassword, r.Header.Get("Content-Type"))
	}
	q := r.URL.Query()
	p.client, p.filename = q.Get("client"), q.Get("filename")
	p.opts.NoParity, _ = strconv.ParseBool(q.Get("noParity")) // "1" and "true" are yes
	var assurance, preamble int
	for _, f := range []struct {
		name string
		dst  *int
	}{{"pl", &p.pl}, {"serial", &p.serial}, {"assurance", &assurance}, {"replicas", &p.opts.Replicas}, {"preamble", &preamble}} {
		v := q.Get(f.name)
		if v == "" && f.name != required {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fail(http.StatusBadRequest, "bad %s: %v", f.name, err)
		}
		*f.dst = n
	}
	p.opts.Assurance = raid.Level(assurance)
	if v := q.Get("misleadFraction"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fail(http.StatusBadRequest, "bad misleadFraction: %v", err)
		}
		p.opts.MisleadFraction = f
	}
	password, err := headerB64(r, headerPassword)
	if err == nil {
		p.opts.EncryptKey, err = headerB64(r, headerEncryptKey)
	}
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	p.password = string(password)
	p.preamble = int64(preamble)
	if preamble < 0 || (r.ContentLength >= 0 && p.preamble > r.ContentLength) {
		return fail(http.StatusBadRequest, "bad preamble: %d bytes declared in a body of %d", preamble, r.ContentLength)
	}
	pre, err := readBody(r.Body, p.preamble, maxBlobRead)
	if errors.Is(err, errOversizeBody) {
		return fail(http.StatusRequestEntityTooLarge, "preamble too large")
	}
	if err == nil {
		p.opts.MisleadLines, err = parseLines(pre)
	}
	if err != nil {
		return fail(http.StatusBadRequest, "bad preamble: %v", err)
	}
	return p, nil
}

// upload is the one upload route: what follows the preamble feeds
// core.UploadStream as it arrives, so neither side ever holds the file
// and no whole-body cap applies. A body cut short of its declared length
// or its terminating chunk fails the read, the upload rolls back, and
// the answer is 400: the request was malformed, not the distributor.
func (s *DistributorServer) upload(_ http.ResponseWriter, r *http.Request) (any, error) {
	p, err := parseWrite(r, "pl")
	if err != nil {
		return nil, err
	}
	body := &bodyReader{r: r.Body}
	info, err := s.d.UploadStream(p.client, p.password, p.filename, body, privacy.Level(p.pl), p.opts)
	if err != nil && body.err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	return info, err
}

// bodyReader remembers whether reading the request body failed.
type bodyReader struct {
	r   io.Reader
	err error
}

func (b *bodyReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF {
		b.err = err
	}
	return n, err
}

// updateChunk reads the new chunk into one exact-size buffer.
func (s *DistributorServer) updateChunk(_ http.ResponseWriter, r *http.Request) (any, error) {
	tooLarge := &httpError{http.StatusRequestEntityTooLarge, "body too large"}
	if r.ContentLength > maxBlobRead {
		return nil, tooLarge
	}
	p, err := parseWrite(r, "serial")
	if err != nil {
		return nil, err
	}
	rest := r.ContentLength
	if rest >= 0 {
		rest -= p.preamble
	}
	data, err := readBody(r.Body, rest, maxBlobRead-p.preamble)
	if errors.Is(err, errOversizeBody) {
		return nil, tooLarge
	}
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, err.Error()}
	}
	return nil, s.d.UpdateChunk(p.client, p.password, p.filename, p.serial, data, p.opts)
}

// ---- Client side ----

// prefixed is body with pre in front of it.
func prefixed(pre []byte, body io.ReadCloser) io.ReadCloser {
	return struct {
		io.Reader
		io.Closer
	}{io.MultiReader(bytes.NewReader(pre), body), body}
}

// postOctets sends one payload-carrying request: scalar names the
// route's own parameter ("pl" or "serial"), payload is the body. Sent
// once, like every mutation.
func (c *Client) postOctets(rt *route, client, password, filename, scalar string, value int, opts UploadOptions, payload io.Reader) ([]byte, error) {
	pre := appendLines(nil, opts.MisleadLines)
	q := url.Values{
		"client": {client}, "filename": {filename}, scalar: {strconv.Itoa(value)},
		"assurance":       {strconv.Itoa(int(opts.Assurance))},
		"noParity":        {strconv.FormatBool(opts.NoParity)},
		"misleadFraction": {strconv.FormatFloat(opts.MisleadFraction, 'g', -1, 64)},
		"replicas":        {strconv.Itoa(opts.Replicas)},
		"preamble":        {strconv.Itoa(len(pre))},
	}
	req, err := http.NewRequest(rt.method, c.base+rt.path+"?"+q.Encode(), payload)
	if err != nil {
		return nil, err
	}
	if len(pre) > 0 {
		// A byte-slice payload arrives here rewindable and of known
		// length (http.NewRequest sees to that); it stays both.
		body, getBody := req.Body, req.GetBody
		req.Body = prefixed(pre, body)
		if getBody != nil {
			req.ContentLength += int64(len(pre))
			req.GetBody = func() (io.ReadCloser, error) {
				b, err := getBody()
				if err != nil {
					return nil, err
				}
				return prefixed(pre, b), nil
			}
		}
	}
	req.Header.Set("Content-Type", octetStream)
	req.Header.Set(headerPassword, base64.StdEncoding.EncodeToString([]byte(password)))
	if len(opts.EncryptKey) > 0 {
		req.Header.Set(headerEncryptKey, base64.StdEncoding.EncodeToString(opts.EncryptKey))
	}
	return c.do(rt.path, req)
}

// Upload ships a file to the distributor, the body written straight from
// data with its length declared.
func (c *Client) Upload(client, password, filename string, data []byte, pl privacy.Level, opts UploadOptions) (core.FileInfo, error) {
	return c.UploadFrom(client, password, filename, bytes.NewReader(data), pl, opts)
}

// UploadFrom streams a file to the distributor from r without buffering
// it: the reader feeds the request body directly (chunked, unless r is a
// bytes.Reader, bytes.Buffer or strings.Reader, whose length net/http
// declares) and the distributor commits stripe-by-stripe with bounded
// memory at both ends.
func (c *Client) UploadFrom(client, password, filename string, r io.Reader, pl privacy.Level, opts UploadOptions) (core.FileInfo, error) {
	return into[core.FileInfo](c.postOctets(routeUpload, client, password, filename, "pl", int(pl), opts, r))
}

// UpdateChunk replaces a chunk's contents.
func (c *Client) UpdateChunk(client, password, filename string, serial int, data []byte) error {
	_, err := c.postOctets(routeUpdateChunk, client, password, filename, "serial", serial, UploadOptions{}, bytes.NewReader(data))
	return err
}
