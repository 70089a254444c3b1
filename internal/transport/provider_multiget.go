package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/provider"
)

// The provider hop's multi-get: POST /v1/chunks:get carries a JSON array
// of opaque virtual ids — nothing else, no file, tenant or request id —
// and is answered by one length-declared octet body holding one frame per
// key, in request order:
//
//	uvarint status | uvarint length | length bytes
//
// status is the HTTP status a single GET of that key would have answered
// (200, or providerStatus of its error), and the bytes are the blob or
// that error's text, so a frame maps to exactly what Get returns. The
// single-key routes are untouched; this one exists because a whole-file
// read of small chunks is otherwise one round trip per chunk.
const multiGetPath = "/v1/chunks:get"

// getChunks serves a multi-get by looping over the provider's own Get, so
// hooks, spies and usage counters see one get per key. A reply that
// would pass maxBlobRead — what the client refuses to read — is refused
// here instead of built.
func (s *ProviderServer) getChunks(w http.ResponseWriter, r *http.Request) {
	var keys []string
	if _, err := decodeJSON(r, &keys); err != nil {
		writeError(w, err)
		return
	}
	type item struct {
		status int
		data   []byte
	}
	items, size := make([]item, len(keys)), 0 // size: an upper bound on the reply's length
	for i, key := range keys {
		data, err := s.p.Get(key)
		items[i] = item{http.StatusOK, data}
		if err != nil {
			items[i] = item{providerStatus(err), []byte(err.Error())}
		}
		size += 2*binary.MaxVarintLen32 + len(items[i].data)
		if int64(size) > maxBlobRead {
			http.Error(w, "multi-get reply too large", http.StatusRequestEntityTooLarge)
			return
		}
	}
	reply := make([]byte, 0, size)
	for _, it := range items {
		reply = binary.AppendUvarint(reply, uint64(it.status))
		reply = binary.AppendUvarint(reply, uint64(len(it.data)))
		reply = append(reply, it.data...)
	}
	w.Header().Set("Content-Type", octetStream)
	w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
	_, _ = w.Write(reply)
}

// GetMany fetches the values under keys in one round trip. blobs and
// errs are index-aligned with keys; a failure of the call itself
// (network, status, malformed or miscounted reply) is every key's error.
// The blobs are capacity-clipped views of the one response buffer.
func (rp *RemoteProvider) GetMany(keys []string) ([][]byte, []error) {
	blobs, errs := make([][]byte, len(keys)), make([]error, len(keys))
	err := rp.withNetRetry(func() (bool, error) {
		body, err := json.Marshal(keys)
		if err != nil {
			return false, err
		}
		resp, err := rp.client.Post(rp.base+multiGetPath, "application/json", bytes.NewReader(body))
		if err != nil {
			return true, fmt.Errorf("%w: %v", provider.ErrOutage, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false, statusToProviderError(resp)
		}
		reply, err := readBody(resp.Body, resp.ContentLength, maxBlobRead)
		if errors.Is(err, errOversizeBody) {
			return false, fmt.Errorf("%w: multi-get reply exceeds %d bytes", ErrOversizeResponse, maxBlobRead)
		}
		if err == nil {
			err = parseMultiGetReply(reply, blobs, errs)
		}
		if err != nil {
			return false, fmt.Errorf("transport: multi-get of %d keys: %w", len(keys), err)
		}
		return false, nil
	})
	if err != nil {
		for i := range keys {
			blobs[i], errs[i] = nil, err
		}
		return blobs, errs
	}
	// The reply itself was a 200; a provider in an outage says so per
	// key, with the 503 a single GET would have drawn.
	for _, e := range errs {
		if errors.Is(e, provider.ErrOutage) {
			rp.down.Store(true)
			break
		}
	}
	return blobs, errs
}

// parseMultiGetReply splits a multi-get reply into its frames, filling
// blobs and errs (one slot per key sent). A frame that runs past the end
// of the reply is io.ErrUnexpectedEOF — never a short blob — and a reply
// with more or fewer frames than keys fails whole: which frame belongs to
// which key is then anyone's guess.
func parseMultiGetReply(reply []byte, blobs [][]byte, errs []error) error {
	for i := range blobs {
		if len(reply) == 0 {
			return fmt.Errorf("reply holds %d items, %d keys were sent", i, len(blobs))
		}
		status, n := binary.Uvarint(reply)
		if n < 0 {
			return fmt.Errorf("item %d: malformed status", i)
		}
		length, m := binary.Uvarint(reply[n:])
		if m < 0 {
			return fmt.Errorf("item %d: malformed length", i)
		}
		if n == 0 || m == 0 || length > uint64(len(reply)-n-m) {
			return fmt.Errorf("item %d: %w", i, io.ErrUnexpectedEOF)
		}
		n += m
		data := reply[n : n+int(length) : n+int(length)]
		reply = reply[n+int(length):]
		if status == http.StatusOK {
			blobs[i], errs[i] = data, nil
		} else {
			blobs[i], errs[i] = nil, providerErrorOf(int(status), data)
		}
	}
	if len(reply) != 0 {
		return fmt.Errorf("reply holds more than the %d items asked for", len(blobs))
	}
	return nil
}
