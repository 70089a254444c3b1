package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/bufpool"
	"repro/internal/provider"
)

// The provider hop's batch routes: POST /v1/chunks:get and POST
// /v1/chunks:delete each carry a JSON array of opaque virtual ids —
// nothing else, no file, tenant or request id — and are answered by one
// length-declared octet body holding one frame per key, in request order:
//
//	uvarint status | uvarint length | length bytes
//
// status is the HTTP status a single GET or DELETE of that key would have
// answered (200, or providerStatus of its error), and the bytes are the
// blob (none for a delete) or that error's text, so a frame maps to
// exactly what Get or Delete returns. Both routes share the one frame
// codec (appendFrame, parseFrames). The single-key routes are untouched;
// these exist because a whole-file read or remove of small chunks is
// otherwise one round trip per chunk.
const (
	multiGetPath    = "/v1/chunks:get"
	multiDeletePath = "/v1/chunks:delete"
)

// appendFrame appends one key's frame to a batch reply.
func appendFrame(reply []byte, status int, data []byte) []byte {
	reply = binary.AppendUvarint(reply, uint64(status))
	reply = binary.AppendUvarint(reply, uint64(len(data)))
	return append(reply, data...)
}

// writeFrames answers a batch request with its frames.
func writeFrames(w http.ResponseWriter, reply []byte) {
	w.Header().Set("Content-Type", octetStream)
	w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
	_, _ = w.Write(reply)
}

// getChunks serves a multi-get by looping over the provider's own read
// of one key (provider.View), so hooks, spies and usage counters see one
// get per key. A reply that would pass maxBlobRead — what the client
// refuses to read — is refused here instead of built. The reply is built
// in a pooled buffer and handed back once written — the write copies it
// out — so a multi-get over views of the stored blobs allocates little
// else.
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
		data, err := provider.View(s.p, key)
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
	reply := bufpool.Get(size)[:0]
	for _, it := range items {
		reply = appendFrame(reply, it.status, it.data)
	}
	writeFrames(w, reply)
	bufpool.Put(reply)
}

// deleteChunks serves a multi-delete by looping over the provider's own
// Delete, so hooks, spies and usage counters see one delete per key.
func (s *ProviderServer) deleteChunks(w http.ResponseWriter, r *http.Request) {
	var keys []string
	if _, err := decodeJSON(r, &keys); err != nil {
		writeError(w, err)
		return
	}
	reply := make([]byte, 0, 2*len(keys))
	for _, key := range keys {
		if err := s.p.Delete(key); err != nil {
			reply = appendFrame(reply, providerStatus(err), []byte(err.Error()))
		} else {
			reply = appendFrame(reply, http.StatusOK, nil)
		}
	}
	writeFrames(w, reply)
}

// GetMany fetches the values under keys in one round trip. blobs and
// errs are index-aligned with keys; a failure of the call itself
// (network, status, malformed or miscounted reply) is every key's error.
// The blobs are capacity-clipped views of the one response buffer.
func (rp *RemoteProvider) GetMany(keys []string) ([][]byte, []error) {
	blobs, errs := make([][]byte, len(keys)), make([]error, len(keys))
	rp.batch(multiGetPath, "multi-get", keys, blobs, errs)
	return blobs, errs
}

// DeleteMany removes the keys in one round trip. errs is index-aligned
// with keys; a failure of the call itself is every key's error. A delete
// is idempotent, so a call that dies below HTTP is resent like any other.
func (rp *RemoteProvider) DeleteMany(keys []string) []error {
	errs := make([]error, len(keys))
	rp.batch(multiDeletePath, "multi-delete", keys, nil, errs)
	return errs
}

// batch posts keys to a batch route under withNetRetry and fills errs —
// and blobs, when the route returns any — from the reply's frames.
func (rp *RemoteProvider) batch(path, name string, keys []string, blobs [][]byte, errs []error) {
	body, err := json.Marshal(keys)
	if err == nil {
		err = rp.withNetRetry(func() (bool, error) {
			status, reply, err := rp.hop.exchange(&hopRequest{method: http.MethodPost, path: path, json: true, body: body, limit: maxBlobRead})
			switch {
			case status == 0:
				return replyError(status, reply, err)
			case status != http.StatusOK && err == nil:
				return false, providerErrorOf(status, reply)
			case errors.Is(err, errOversizeBody):
				return false, fmt.Errorf("%w: %s reply exceeds %d bytes", ErrOversizeResponse, name, maxBlobRead)
			case err == nil:
				err = parseFrames(reply, blobs, errs)
			}
			if err != nil {
				return false, fmt.Errorf("transport: %s of %d keys: %w", name, len(keys), err)
			}
			return false, nil
		})
	}
	if err != nil {
		for i := range errs {
			errs[i] = err
			if blobs != nil {
				blobs[i] = nil
			}
		}
		return
	}
	// The reply itself was a 200; a provider in an outage says so per
	// key, with the 503 a single request would have drawn.
	for _, e := range errs {
		if errors.Is(e, provider.ErrOutage) {
			rp.down.Store(true)
			break
		}
	}
}

// parseFrames splits a batch reply into its frames, filling errs (one
// slot per key sent) and, unless it is nil, blobs. A frame that runs past
// the end of the reply is io.ErrUnexpectedEOF — never a short blob — and
// a reply with more or fewer frames than keys fails whole: which frame
// belongs to which key is then anyone's guess.
func parseFrames(reply []byte, blobs [][]byte, errs []error) error {
	for i := range errs {
		if len(reply) == 0 {
			return fmt.Errorf("reply holds %d items, %d keys were sent", i, len(errs))
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
		errs[i] = nil
		if status != http.StatusOK {
			errs[i], data = providerErrorOf(int(status), data), nil
		}
		if blobs != nil {
			blobs[i] = data
		}
	}
	if len(reply) != 0 {
		return fmt.Errorf("reply holds more than the %d items asked for", len(errs))
	}
	return nil
}
