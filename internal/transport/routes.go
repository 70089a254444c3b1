package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/privacy"
)

// This file is the distributor's wire surface, defined once: the route
// table (what each operation looks like on the wire and who answers it
// behind a sharded deployment) and the error table (which sentinel a
// failure is, as a status and a code header). DistributorServer and
// ShardProxy register themselves by ranging over the route table, Client
// sends through it, and both directions of the error mapping read the one
// error table — so a new operation is one row here plus its typed method,
// not a handler per module. The `routes` rule in internal/archcheck keeps
// every other file in the package free of "/v1/" literals (the provider
// wire in provider_*.go is a different protocol).

// routeClass says who answers a route when several distributors shard
// one namespace.
type routeClass int

const (
	ownerRouted  routeClass = iota // the shard owning ⟨client, filename⟩
	everyShard                     // account state: applied on every shard, "already exists" counting as done
	mergedAnswer                   // every shard answers and System merges the answers
	perShard                       // names provider indices, which each shard numbers for itself: ask one shard
)

// keyPlace says where an owner-routed request carries client and
// filename, which is all a proxy reads of it.
type keyPlace int

const (
	noKeys keyPlace = iota
	keysInQuery
	keysInBody // fields "client" and "filename" of the JSON request
)

type replyKind int

const (
	replyNone   replyKind = iota // 204
	replyJSON                    // application/json
	replyOctets                  // one application/octet-stream body, read under maxRespRead
	replyStream                  // octets the handler writes itself, chunked and uncapped
)

// once and replay fill the retry column: a replay route is read-only, so
// the client resends it after a network error; everything else is sent
// once, since a request that died on the wire may still have been
// applied.
const (
	once   = false
	replay = true
)

// handler is the distributor's side of a route: it returns what to
// answer, and answer writes it in the route's reply kind.
type handler func(s *DistributorServer, w http.ResponseWriter, r *http.Request) (any, error)

// route is one row of the table.
type route struct {
	method, path string
	class        routeClass
	keys         keyPlace
	reply        replyKind
	retry        bool
	serve        handler
}

// routeOf is a route whose request is the JSON form of a Req; the type is
// what pairs a DTO with its path, on the server (def) and in the client
// (call) alike.
type routeOf[Req any] struct{ *route }

// routes is the table, in declaration order.
var routes []*route

func raw(pattern string, class routeClass, keys keyPlace, reply replyKind, retry bool, serve handler) *route {
	method, path, _ := strings.Cut(pattern, " ")
	rt := &route{method, path, class, keys, reply, retry, serve}
	routes = append(routes, rt)
	return rt
}

// def is the generic adapter of the JSON-request routes: decode the
// capped body into the route's DTO, make the one core call.
func def[Req any](pattern string, class routeClass, keys keyPlace, reply replyKind, retry bool, fn func(d *core.Distributor, q Req) (any, error)) routeOf[Req] {
	return routeOf[Req]{raw(pattern, class, keys, reply, retry, func(s *DistributorServer, _ http.ResponseWriter, r *http.Request) (any, error) {
		var q Req
		if _, err := decodeJSON(r, &q); err != nil {
			return nil, err
		}
		return fn(s.d, q)
	})}
}

// noReq adapts a call that takes no request.
func noReq(fn func(d *core.Distributor) (any, error)) handler {
	return func(s *DistributorServer, _ http.ResponseWriter, _ *http.Request) (any, error) { return fn(s.d) }
}

// Wire DTOs of the JSON-request routes.

type clientReq struct {
	Name string `json:"name"`
}

type passwordReq struct {
	Client   string `json:"client"`
	Password string `json:"password"`
	PL       int    `json:"pl"`
}

type fileReq struct {
	Client   string `json:"client"`
	Password string `json:"password"`
	Filename string `json:"filename"`
}

type chunkReq struct {
	Client   string `json:"client"`
	Password string `json:"password"`
	Filename string `json:"filename"`
	Serial   int    `json:"serial"`
}

type rangeReq struct {
	Client   string `json:"client"`
	Password string `json:"password"`
	Filename string `json:"filename"`
	Offset   int    `json:"offset"`
	Length   int    `json:"length"`
}

type decommissionReq struct {
	ProviderIndex int `json:"providerIndex"`
}

// The table. DESIGN.md §13 prints it; the payload-carrying rows' request
// codec is write.go, the streamed read's is stream.go.
var (
	routeRegister = def("POST /v1/clients", everyShard, noKeys, replyNone, once, func(d *core.Distributor, q clientReq) (any, error) {
		return nil, d.RegisterClient(q.Name)
	})
	routeAddPassword = def("POST /v1/passwords", everyShard, noKeys, replyNone, once, func(d *core.Distributor, q passwordReq) (any, error) {
		return nil, d.AddPassword(q.Client, q.Password, privacy.Level(q.PL))
	})
	routeUpload      = raw("POST /v1/upload", ownerRouted, keysInQuery, replyJSON, once, (*DistributorServer).upload)
	routeUpdateChunk = raw("POST /v1/update_chunk", ownerRouted, keysInQuery, replyNone, once, (*DistributorServer).updateChunk)
	routeStreamFile  = raw("GET /v1/stream/file", ownerRouted, keysInQuery, replyStream, once, (*DistributorServer).streamFile)
	routeGetFile     = def("POST /v1/get_file", ownerRouted, keysInBody, replyOctets, replay, func(d *core.Distributor, q fileReq) (any, error) {
		return d.GetFile(q.Client, q.Password, q.Filename)
	})
	routeGetChunk = def("POST /v1/get_chunk", ownerRouted, keysInBody, replyOctets, replay, func(d *core.Distributor, q chunkReq) (any, error) {
		return d.GetChunk(q.Client, q.Password, q.Filename, q.Serial)
	})
	routeGetSnapshot = def("POST /v1/get_snapshot", ownerRouted, keysInBody, replyOctets, replay, func(d *core.Distributor, q chunkReq) (any, error) {
		return d.GetSnapshot(q.Client, q.Password, q.Filename, q.Serial)
	})
	routeGetRange = def("POST /v1/get_range", ownerRouted, keysInBody, replyOctets, replay, func(d *core.Distributor, q rangeReq) (any, error) {
		return d.GetRange(q.Client, q.Password, q.Filename, q.Offset, q.Length)
	})
	routeChunkCount = def("POST /v1/chunk_count", ownerRouted, keysInBody, replyJSON, replay, func(d *core.Distributor, q fileReq) (any, error) {
		n, err := d.ChunkCount(q.Client, q.Password, q.Filename)
		return map[string]int{"chunks": n}, err
	})
	routeRemoveChunk = def("POST /v1/remove_chunk", ownerRouted, keysInBody, replyNone, once, func(d *core.Distributor, q chunkReq) (any, error) {
		return nil, d.RemoveChunk(q.Client, q.Password, q.Filename, q.Serial)
	})
	routeRemoveFile = def("POST /v1/remove_file", ownerRouted, keysInBody, replyNone, once, func(d *core.Distributor, q fileReq) (any, error) {
		return nil, d.RemoveFile(q.Client, q.Password, q.Filename)
	})
	routeScrub = raw("POST /v1/admin/scrub", mergedAnswer, noKeys, replyJSON, once, noReq(func(d *core.Distributor) (any, error) {
		return d.Scrub()
	}))
	routeStats = raw("GET /v1/stats", mergedAnswer, noKeys, replyJSON, replay, noReq(func(d *core.Distributor) (any, error) {
		return d.Stats(), nil
	}))
	routeMetrics = raw("GET /v1/metrics", mergedAnswer, noKeys, replyJSON, replay, noReq(func(d *core.Distributor) (any, error) {
		return d.Metrics(), nil
	}))
	routeHealth = raw("GET /v1/health", mergedAnswer, noKeys, replyJSON, replay, noReq(func(d *core.Distributor) (any, error) {
		return d.Health(), nil
	}))
	routeDecommission = def("POST /v1/admin/decommission", perShard, noKeys, replyJSON, once, func(d *core.Distributor, q decommissionReq) (any, error) {
		return d.Decommission(q.ProviderIndex)
	})
	routeProviderTable = raw("GET /v1/tables/providers", perShard, noKeys, replyJSON, replay, noReq(func(d *core.Distributor) (any, error) {
		return d.ProviderTable(), nil
	}))
	routeClientTable = raw("GET /v1/tables/clients", perShard, noKeys, replyJSON, replay, noReq(func(d *core.Distributor) (any, error) {
		return d.ClientTable(), nil
	}))
	routeChunkTable = raw("GET /v1/tables/chunks", perShard, noKeys, replyJSON, replay, noReq(func(d *core.Distributor) (any, error) {
		return d.ChunkTable(), nil
	}))
)

// locatePath is the one route ShardProxy adds to the table's:
// GET /v1/locate?client=C&filename=F, the router's decision for a file.
const locatePath = "/v1/locate"

// newMux registers every row, handled as bind says, and answers any
// other path 404 under a code of its own.
func newMux(bind func(*route) http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" "+rt.path, bind(rt))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		// The code is in no row of the error table, so a client reads this
		// 404 as a transport failure, not as "no such file".
		w.Header().Set(headerErrorCode, "no_route")
		http.Error(w, "no route "+r.Method+" "+r.URL.Path, http.StatusNotFound)
	})
	return mux
}

// answer writes a handler's result in the route's reply kind.
func (rt *route) answer(w http.ResponseWriter, v any, err error) {
	switch {
	case err != nil:
		writeError(w, err)
	case rt.reply == replyNone:
		w.WriteHeader(http.StatusNoContent)
	case rt.reply == replyJSON:
		writeJSON(w, v)
	case rt.reply == replyOctets:
		// The length is declared so that the client allocates a whole-object
		// reply once (readBody); undeclared, net/http chunks it and the
		// reader regrows and recopies its way up.
		body := v.([]byte)
		w.Header().Set("Content-Type", octetStream)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	} // replyStream: the handler has written it

}

// ---- Errors ----

// headerErrorCode names the row of wireErrors a failure is. The status
// alone cannot (three sentinels share 404, two 409, two 503), and the
// message is for people.
const headerErrorCode = "X-Error-Code"

// wireErrors is the identity of a core error on the wire. The server
// answers with the first row its error matches; the client maps a code
// back to that row's sentinel, and a response without the header (an
// older server) to the first row with its status.
var wireErrors = []struct {
	err    error
	status int
	code   string
}{
	{core.ErrAuth, http.StatusForbidden, "auth"},
	{core.ErrNoSuchFile, http.StatusNotFound, "no_such_file"},
	{core.ErrNoSuchChunk, http.StatusNotFound, "no_such_chunk"},
	{core.ErrNoSnapshot, http.StatusNotFound, "no_snapshot"},
	{core.ErrExists, http.StatusConflict, "exists"},
	{core.ErrConflict, http.StatusConflict, "conflict"},
	{core.ErrRange, http.StatusRequestedRangeNotSatisfiable, "range"},
	{core.ErrPlacement, http.StatusInsufficientStorage, "placement"},
	{core.ErrUnavailable, http.StatusServiceUnavailable, "unavailable"},
	{core.ErrCircuitOpen, http.StatusServiceUnavailable, "circuit_open"},
	{core.ErrConfig, http.StatusBadRequest, "config"},
}

// httpError is a refusal raised before the core is reached (an oversize,
// malformed or mistyped request): its own status, no code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// writeError answers a failed request; the message goes out once, as the
// body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var refused *httpError
	if errors.As(err, &refused) {
		status = refused.status
	} else {
		for _, e := range wireErrors {
			if errors.Is(err, e.err) {
				w.Header().Set(headerErrorCode, e.code)
				status = e.status
				break
			}
		}
	}
	writeText(w, status, err.Error())
}

// wireError is a core error as it crossed the wire: it matches the
// sentinel its code names and reads as the server's message, verbatim, so
// the text is the same after one hop or three.
type wireError struct {
	sentinel error
	msg      string
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// errorFrom is writeError's inverse. A status no row has, or a code no
// row has, is a plain transport error: a proxy's 502 or a mux's 404 is
// never mistaken for a core sentinel.
func errorFrom(path string, resp *http.Response, body []byte) error {
	msg := strings.TrimSpace(string(body))
	code := resp.Header.Get(headerErrorCode)
	for _, e := range wireErrors {
		if code == e.code || (code == "" && resp.StatusCode == e.status) {
			if msg == "" {
				msg = e.err.Error()
			}
			return &wireError{e.err, msg}
		}
	}
	return fmt.Errorf("transport: %s: distributor status %d: %s", path, resp.StatusCode, msg)
}

// maxJSONRequest bounds a JSON request body. Payloads travel as octets
// (write.go), so what is left in JSON is names, passwords and integers.
const maxJSONRequest = 64 << 10

// decodeJSON reads a JSON request body under maxJSONRequest, decodes it
// into v and returns it as it arrived. A declared excess is refused
// unread, an undeclared one once the cap is hit, both with 413; a body
// that is not the JSON v takes is 400.
func decodeJSON(r *http.Request, v any) ([]byte, error) {
	body, err := readBody(r.Body, r.ContentLength, maxJSONRequest)
	if errors.Is(err, errOversizeBody) {
		return nil, &httpError{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxJSONRequest)}
	}
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, "bad request body: " + err.Error()}
	}
	return body, nil
}
