package transport

import (
	"errors"
	"fmt"
	"io"
	"net/http"
)

// errOversizeBody reports a body longer than its reader allows, whether
// the peer admitted it up front or only by sending it.
var errOversizeBody = errors.New("transport: body exceeds size limit")

// readBody reads one whole HTTP body of at most limit bytes. It is the
// only place this package buffers a body, so the rules hold on every
// hop:
//
//   - contentLength is what the peer declared (http.Request.ContentLength
//     or http.Response.ContentLength; -1 when it sent no length, as with
//     a chunked body).
//   - A declared length over the limit fails with errOversizeBody before
//     a byte is read or allocated.
//   - A declared length is taken at its word for the allocation — one
//     buffer of exactly that size, where io.ReadAll would start at 512
//     bytes and regrow and recopy its way up — but not for the result: a
//     body that ends early is io.ErrUnexpectedEOF, never a short blob
//     (net/http itself never delivers more than was declared).
//   - Only an undeclared length falls back to growing reads, capped at
//     limit+1 bytes so that reaching the cap is told apart from fitting
//     it exactly.
func readBody(body io.Reader, contentLength, limit int64) ([]byte, error) {
	return readBodyInto(body, contentLength, limit, nil)
}

// readBodyInto is readBody reading a declared length into get(length)
// instead of a buffer of its own — bufpool.Get, for a caller that hands
// the body back once done with it. get is called only once a non-zero
// length has passed the limit; nil allocates.
func readBodyInto(body io.Reader, contentLength, limit int64, get func(n int) []byte) ([]byte, error) {
	if contentLength > limit {
		return nil, errOversizeBody
	}
	if contentLength >= 0 {
		var buf []byte
		if get != nil && contentLength > 0 {
			buf = get(int(contentLength))
		} else {
			buf = make([]byte, contentLength)
		}
		if _, err := io.ReadFull(body, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("body shorter than its declared %d bytes: %w", contentLength, err)
		}
		return buf, nil
	}
	data, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, errOversizeBody
	}
	return data, nil
}

// errorText reads the leading bytes of an error response for a
// diagnostic. A prefix is all that is wanted, so the body is cut at max
// rather than refused past it.
func errorText(resp *http.Response, max int64) []byte {
	msg, _ := readBody(io.LimitReader(resp.Body, max), -1, max)
	return msg
}

// readResponse reads a distributor response under the metadata cap and
// classifies what can go wrong: a body past the cap is
// ErrOversizeResponse (the server answered; retrying cannot help), any
// other failure means the response died on the wire after the server
// executed the request — a netError, which idempotent callers retry.
func readResponse(path string, resp *http.Response) ([]byte, error) {
	payload, err := readBody(resp.Body, resp.ContentLength, maxRespRead)
	if errors.Is(err, errOversizeBody) {
		return nil, fmt.Errorf("%w: %s: body larger than %d bytes", ErrOversizeResponse, path, maxRespRead)
	}
	if err != nil {
		return nil, &netError{fmt.Errorf("transport: %s: %w", path, err)}
	}
	return payload, nil
}
