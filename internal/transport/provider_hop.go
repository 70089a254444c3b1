package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bufpool"
)

// The provider hop's HTTP/1.1 exchange. A distributor makes one provider
// call per blob — 1 280 puts for an 8 MiB file at PL3 — so the client
// side of this hop is written for that one shape instead of going through
// net/http's client: each call writes its request line, Host,
// Content-Length and body in one write, and reads the status line, the
// headers it needs and a body of the declared length, all on the
// caller's goroutine, over a keep-alive connection from the provider's
// own pool. There is no http.Request or http.Response, no header map and
// no per-connection goroutine. A provider is a third party, so nothing
// else goes out: no header that could tie a chunk to a file or a tenant.
//
// What a reply must be (anything else fails the call, and the connection
// is not reused):
//
//   - "HTTP/1.1 " and a status of 200 or more; a 204 or 304 has no body.
//   - At most maxReplyHead bytes of status line and headers.
//   - One Content-Length of plain decimal digits, and no
//     Transfer-Encoding of any kind.
//   - A body read by readBody's rules: a length over the cap is refused
//     unread, and a body that ends early is io.ErrUnexpectedEOF, never a
//     short blob.
//
// A connection goes back to the pool only when its reply was read whole,
// nothing past it had arrived and it did not say Connection: close.
//
// The server side of the hop stays net/http: ProviderServer declares the
// length of every reply, errors included (writeText), so a well-behaved
// provider never sends chunked.

// hopReadBuffer is each connection's read buffer, net/http's default;
// every line of a reply's head must fit it.
const hopReadBuffer = 4 << 10

// maxReplyHead bounds a reply's status line and headers together; a
// provider's are a few hundred bytes.
const maxReplyHead = 16 << 10

// maxErrorText is how much of an error reply's body becomes the error's
// message.
const maxErrorText = 512

// maxDrainBytes bounds how much of an error reply's body is read to keep
// its connection: the bound must comfortably cover any error payload the
// servers emit; a body past it costs the connection rather than being
// slurped without limit.
const maxDrainBytes = 256 << 10

// maxListingRead bounds a 2xx body of the introspection routes (/v1/keys,
// /v1/dump), which list a whole provider. Past maxBlobRead such a body is
// read as its bytes arrive instead of into one buffer of the declared
// size, so a lying declaration costs nothing up front.
const maxListingRead = 1 << 30

// hop is one provider's end of the exchange: where to dial, and its pool
// of idle keep-alive connections.
type hop struct {
	host    string // the base URL's host, sent as Host
	addr    string // host:port dialled
	prefix  string // the base URL's path, before every request path
	dial    func(ctx context.Context, network, addr string) (net.Conn, error)
	timeout time.Duration // per-exchange deadline; 0 is none

	mu   sync.Mutex
	idle []*hopConn // most recently used last
}

// hopConn is one keep-alive connection and its read buffer.
type hopConn struct {
	conn net.Conn
	r    *bufio.Reader
}

// hopRequest is one provider call and how to read its reply.
type hopRequest struct {
	method string
	path   string
	key    string // when set, path-escaped onto path: a chunk route's {key}
	body   []byte
	// limit caps a 2xx reply's body (0: maxDrainBytes, for a call that
	// wants only the status); get, when set, supplies a declared-length
	// 2xx body's buffer (bufpool.Get), as for readBodyInto.
	limit int64
	get   func(n int) []byte
	// timeout, when set and shorter, replaces the hop's deadline.
	timeout time.Duration
}

// newHop resolves a provider's base URL; timeout is each exchange's
// deadline (0: none). Connections are dialled through dialer.
func newHop(baseURL string, timeout time.Duration) (*hop, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("provider URL %q: the provider hop speaks plain http://host[:port]", baseURL)
	}
	h := &hop{
		host:    u.Host,
		addr:    u.Host,
		prefix:  strings.TrimSuffix(u.EscapedPath(), "/"),
		dial:    dialer.DialContext,
		timeout: timeout,
	}
	if u.Port() == "" {
		h.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return h, nil
}

// exchange sends req and reads its reply. status is 0 when no reply
// arrived: the call failed at the network layer (or the reply's head was
// unreadable), and err says why. Otherwise status is the provider's, and
// err is non-nil only when a 2xx body could not be read; a non-2xx
// reply's body is its message, at most maxErrorText bytes.
//
// An idle connection the provider has closed fails before the reply's
// first byte; the call is then sent once more on a fresh connection. Every
// provider route is idempotent, so the resend cannot apply twice.
func (h *hop) exchange(req *hopRequest) (status int, body []byte, err error) {
	timeout := h.timeout
	if req.timeout > 0 && (timeout == 0 || req.timeout < timeout) {
		timeout = req.timeout
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	c := h.take()
	reused := c != nil
	for {
		if c == nil {
			if c, err = h.connect(deadline); err != nil {
				return 0, nil, h.fail(req, err)
			}
		}
		if err = c.conn.SetDeadline(deadline); err == nil {
			if err = h.send(c.conn, req); err == nil {
				_, err = c.r.Peek(1)
			}
		}
		if err != nil {
			c.conn.Close()
			if reused && !errors.Is(err, os.ErrDeadlineExceeded) {
				c, reused = nil, false
				continue
			}
			return 0, nil, h.fail(req, err)
		}
		var keep bool
		status, body, keep, err = c.receive(req)
		if keep {
			h.put(c)
		} else {
			c.conn.Close()
		}
		if status == 0 {
			err = h.fail(req, err)
		}
		return status, body, err
	}
}

func (h *hop) fail(req *hopRequest, err error) error {
	return fmt.Errorf("%s http://%s%s%s%s: %w", req.method, h.host, h.prefix, req.path, url.PathEscape(req.key), err)
}

// take returns the most recently used idle connection, or nil.
func (h *hop) take() *hopConn {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.idle)
	if n == 0 {
		return nil
	}
	c := h.idle[n-1]
	h.idle[n-1] = nil
	h.idle = h.idle[:n-1]
	return c
}

// put keeps c for the next call, up to poolMaxIdlePerHost idle
// connections; past that it is closed.
func (h *hop) put(c *hopConn) {
	h.mu.Lock()
	if len(h.idle) < poolMaxIdlePerHost {
		h.idle = append(h.idle, c)
		c = nil
	}
	h.mu.Unlock()
	if c != nil {
		c.conn.Close()
	}
}

func (h *hop) connect(deadline time.Time) (*hopConn, error) {
	ctx := context.Background()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	conn, err := h.dial(ctx, "tcp", h.addr)
	if err != nil {
		return nil, err
	}
	return &hopConn{conn: conn, r: bufio.NewReaderSize(conn, hopReadBuffer)}, nil
}

// send writes req in one write when it fits poolWriteBuffer — the head
// and the whole body copied into one pooled buffer — and otherwise the
// head and as much body as fits, then the rest. The head is the request
// line, Host and Content-Length, nothing more.
func (h *hop) send(conn net.Conn, req *hopRequest) error {
	buf := bufpool.Get(poolWriteBuffer)[:0]
	defer func() { bufpool.Put(buf) }()
	buf = append(buf, req.method...)
	buf = append(buf, ' ')
	buf = append(buf, h.prefix...)
	buf = append(buf, req.path...)
	buf = append(buf, url.PathEscape(req.key)...)
	buf = append(buf, " HTTP/1.1\r\nHost: "...)
	buf = append(buf, h.host...)
	buf = append(buf, "\r\nContent-Length: "...)
	buf = strconv.AppendInt(buf, int64(len(req.body)), 10)
	buf = append(buf, "\r\n\r\n"...)
	n := min(len(req.body), max(poolWriteBuffer-len(buf), 0))
	buf = append(buf, req.body[:n]...)
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	if n < len(req.body) {
		_, err := conn.Write(req.body[n:])
		return err
	}
	return nil
}

// replyHead is what receive takes from a reply's status line and headers.
type replyHead struct {
	status int
	length int64 // the declared Content-Length; -1 before one is read
	close  bool  // Connection: close
}

// receive reads one reply. keep says whether the connection may carry
// another call; status is 0 when the head could not be read.
func (c *hopConn) receive(req *hopRequest) (status int, body []byte, keep bool, err error) {
	head, err := c.readHead()
	if err != nil {
		return 0, nil, false, err
	}
	ok := head.status/100 == 2
	limit := int64(maxDrainBytes) // an error's message, or a reply wanted only for its status
	if ok && req.limit > 0 {
		limit = req.limit
	}
	var get func(int) []byte
	if ok {
		get = req.get
	}
	body, err = readReply(c.r, head.length, limit, get)
	switch {
	case err != nil && ok:
		return head.status, nil, false, err
	case err != nil:
		// The status is the answer; a message that cannot be read costs
		// only the connection.
		return head.status, nil, false, nil
	case !ok && len(body) > maxErrorText:
		body = body[:maxErrorText]
	}
	return head.status, body, !head.close && c.r.Buffered() == 0, nil
}

// readReply reads a body of length bytes under limit by readBody's
// rules, with one addition: a declared length past maxBlobRead — only a
// listing may have one — is read as its bytes arrive, not allocated on
// the peer's word.
func readReply(r io.Reader, length, limit int64, get func(int) []byte) ([]byte, error) {
	if length > maxBlobRead && length <= limit {
		data, err := readBody(io.LimitReader(r, length), -1, length)
		if err == nil && int64(len(data)) < length {
			err = fmt.Errorf("body shorter than its declared %d bytes: %w", length, io.ErrUnexpectedEOF)
		}
		return data, err
	}
	return readBodyInto(r, length, limit, get)
}

var errReplyHead = errors.New("malformed reply head")

// readHead reads and checks a reply's status line and headers.
func (c *hopConn) readHead() (replyHead, error) {
	h := replyHead{length: -1}
	budget := maxReplyHead
	line, err := c.line(&budget)
	if err != nil {
		return h, err
	}
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || (len(line) > 12 && line[12] != ' ') {
		return h, fmt.Errorf("%w: status line %.40q", errReplyHead, line)
	}
	for _, b := range line[9:12] {
		if b < '0' || b > '9' {
			return h, fmt.Errorf("%w: status line %.40q", errReplyHead, line)
		}
		h.status = h.status*10 + int(b-'0')
	}
	if h.status < 200 {
		return h, fmt.Errorf("%w: status %d", errReplyHead, h.status)
	}
	for {
		if line, err = c.line(&budget); err != nil {
			return h, err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return h, fmt.Errorf("%w: header line %.40q", errReplyHead, line)
		}
		value = bytes.Trim(value, " \t")
		switch {
		case foldEqual(name, "Content-Length"):
			n, ok := parseLength(value)
			if !ok || h.length >= 0 {
				return h, fmt.Errorf("%w: Content-Length %.40q", errReplyHead, value)
			}
			h.length = n
		case foldEqual(name, "Transfer-Encoding"):
			// Only a declared length is read: a provider has no reason
			// to send anything else.
			return h, fmt.Errorf("%w: Transfer-Encoding %.40q", errReplyHead, value)
		case foldEqual(name, "Connection"):
			for opts := value; len(opts) > 0 && !h.close; {
				var opt []byte
				opt, opts, _ = bytes.Cut(opts, []byte(","))
				h.close = foldEqual(bytes.Trim(opt, " \t"), "close")
			}
		}
	}
	switch {
	case h.status == http.StatusNoContent || h.status == http.StatusNotModified:
		if h.length > 0 {
			return h, fmt.Errorf("%w: a body on status %d", errReplyHead, h.status)
		}
		h.length = 0
	case h.length < 0:
		return h, fmt.Errorf("%w: no declared length", errReplyHead)
	}
	return h, nil
}

// line reads one head line without its line ending, charging it to
// budget.
func (c *hopConn) line(budget *int) ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	*budget -= len(line)
	switch {
	case err == bufio.ErrBufferFull || *budget < 0:
		return nil, fmt.Errorf("%w: longer than %d bytes", errReplyHead, maxReplyHead)
	case err == io.EOF && len(line) > 0:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// foldEqual reports whether b is s, ASCII letters compared without case.
// HTTP names and tokens are ASCII; bytes.EqualFold's Unicode folding
// would also take the long s (U+017F) for an 's', as in "close".
func foldEqual(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// parseLength parses a Content-Length: decimal digits only, at most 18
// of them (no sign, no overflow).
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 18 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return 0, false
		}
		n = n*10 + int64(v[i]-'0')
	}
	return n, true
}
