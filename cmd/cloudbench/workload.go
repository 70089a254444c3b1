package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/transport"
)

// opKind enumerates the workload's operation classes.
type opKind int

const (
	opPut opKind = iota
	opGet
	opRange
	opUpdate
	opRemove
	opSPut // streaming upload via UploadFrom (io.Reader, windowed)
	opSGet // streaming download via GetFileTo (io.Writer, windowed)
	opCount
)

var opNames = [opCount]string{"put", "get", "range", "update", "remove", "sput", "sget"}

// rangeCap bounds one range read; spans are uniform in [1, rangeCap]
// clipped to the object tail.
const rangeCap = 64 << 10

// opMix is a weighted operation distribution parsed from
// "put=10,get=60,range=15,update=10,remove=5".
type opMix struct {
	weights [opCount]int
	total   int
}

func parseMix(s string) (opMix, error) {
	var m opMix
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("mix term %q: want op=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 || w > math.MaxInt-m.total {
			return m, fmt.Errorf("mix term %q: bad weight", part)
		}
		idx := -1
		for i, n := range opNames {
			if n == name {
				idx = i
			}
		}
		if idx < 0 {
			return m, fmt.Errorf("mix term %q: unknown op (have %v)", part, opNames)
		}
		m.weights[idx] += w
		m.total += w
	}
	if m.total == 0 {
		return m, fmt.Errorf("mix %q: all weights zero", s)
	}
	return m, nil
}

func (m opMix) pick(rng *rand.Rand) opKind {
	n := rng.Intn(m.total)
	for op, w := range m.weights {
		if n < w {
			return opKind(op)
		}
		n -= w
	}
	return opGet
}

// sizeDist is a weighted object-size distribution parsed from
// "4KiB=60,64KiB=30,256KiB=10".
type sizeDist struct {
	sizes   []int
	weights []int
	total   int
}

func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 || n > math.MaxInt/mult {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func parseSizes(s string) (sizeDist, error) {
	var d sizeDist
	for _, part := range strings.Split(s, ",") {
		szStr, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return d, fmt.Errorf("size term %q: want size=weight", part)
		}
		sz, err := parseSize(szStr)
		if err != nil {
			return d, err
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 || w > math.MaxInt-d.total {
			return d, fmt.Errorf("size term %q: bad weight", part)
		}
		d.sizes = append(d.sizes, sz)
		d.weights = append(d.weights, w)
		d.total += w
	}
	if d.total == 0 {
		return d, fmt.Errorf("sizes %q: all weights zero", s)
	}
	return d, nil
}

func (d sizeDist) pick(rng *rand.Rand) int {
	n := rng.Intn(d.total)
	for i, w := range d.weights {
		if n < w {
			return d.sizes[i]
		}
		n -= w
	}
	return d.sizes[len(d.sizes)-1]
}

// objInfo is one live object in a tenant's namespace.
type objInfo struct {
	name string
	size int
}

// tenant is one client account and its leased keyspace. Every op leases
// its object exclusively (acquire/release), so a concurrent remove can
// never race a read into a spurious not-found error — the harness must
// distinguish real failures from workload races to fail CI on the former.
type tenant struct {
	name     string
	password string
	floor    int

	mu   sync.Mutex
	objs []objInfo
	next int
}

// acquire leases a uniformly random object, removing it from the pool.
func (t *tenant) acquire(rng *rand.Rand) (objInfo, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.objs) == 0 {
		return objInfo{}, false
	}
	i := rng.Intn(len(t.objs))
	o := t.objs[i]
	t.objs[i] = t.objs[len(t.objs)-1]
	t.objs = t.objs[:len(t.objs)-1]
	return o, true
}

// release returns a leased (or freshly uploaded) object to the pool.
func (t *tenant) release(o objInfo) {
	t.mu.Lock()
	t.objs = append(t.objs, o)
	t.mu.Unlock()
}

// population counts poolable objects (leased ones excluded).
func (t *tenant) population() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.objs)
}

// fresh mints a tenant-unique object name.
func (t *tenant) fresh(size int) objInfo {
	t.mu.Lock()
	n := t.next
	t.next++
	t.mu.Unlock()
	return objInfo{name: fmt.Sprintf("obj-%06d", n), size: size}
}

// opRec accumulates one worker's measured-window results for one op.
type opRec struct {
	hist     *metrics.Histogram
	count    int64
	errs     int64
	bytes    int64
	firstErr error
}

func newOpRec() *opRec { return &opRec{hist: metrics.NewHistogram()} }

// worker drives one goroutine's share of the load.
type worker struct {
	rng     *rand.Rand
	client  *transport.Client
	tenants []*tenant
	mix     opMix
	sizes   sizeDist
	pl      privacy.Level
	block   []byte // pre-generated payload block for streaming puts
	recs    [opCount]*opRec
}

func newWorker(seed int64, client *transport.Client, tenants []*tenant, mix opMix, sizes sizeDist, pl privacy.Level) *worker {
	w := &worker{
		rng: rand.New(rand.NewSource(seed)), client: client,
		tenants: tenants, mix: mix, sizes: sizes, pl: pl,
		block: make([]byte, 256<<10),
	}
	w.rng.Read(w.block)
	for i := range w.recs {
		w.recs[i] = newOpRec()
	}
	return w
}

// blockReader serves size bytes from a repeating pre-generated block.
// Streaming uploads of arbitrarily large objects then cost O(block) in
// driver memory and near-zero generation CPU, so the measured latency is
// the system's, not the RNG's.
type blockReader struct {
	block []byte
	left  int
	off   int
}

func (r *blockReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.block[r.off:])
	if n > r.left {
		n = r.left
	}
	r.left -= n
	r.off = (r.off + n) % len(r.block)
	return n, nil
}

// step executes one operation and returns its class, payload bytes
// moved, and the latency of the timed distributor call alone (payload
// generation and sizing reads are excluded, so percentiles measure the
// system, not the driver).
func (w *worker) step() (op opKind, n int64, lat time.Duration, err error) {
	tn := w.tenants[w.rng.Intn(len(w.tenants))]
	op = w.mix.pick(w.rng)
	var obj objInfo
	if op != opPut && op != opSPut {
		if op == opRemove && tn.population() <= tn.floor {
			// Keep the namespace from draining: a remove that would
			// shrink the pool below its floor becomes a put.
			op = opPut
		} else {
			var ok bool
			if obj, ok = tn.acquire(w.rng); !ok {
				op = opPut // pool momentarily empty: grow it instead
			}
		}
	}

	switch op {
	case opPut:
		obj = tn.fresh(w.sizes.pick(w.rng))
		data := make([]byte, obj.size)
		w.rng.Read(data)
		start := time.Now()
		_, err = w.client.Upload(tn.name, tn.password, obj.name, data, w.pl, transport.UploadOptions{})
		lat = time.Since(start)
		if err == nil {
			tn.release(obj)
		}
		return op, int64(obj.size), lat, err

	case opGet:
		start := time.Now()
		data, gerr := w.client.GetFile(tn.name, tn.password, obj.name)
		lat = time.Since(start)
		tn.release(obj)
		if gerr == nil && len(data) != obj.size {
			// A short read here is exactly the silent-truncation class of
			// bug the transport layer must never let through.
			gerr = fmt.Errorf("get %s/%s: %d bytes, want %d", tn.name, obj.name, len(data), obj.size)
		}
		return op, int64(obj.size), lat, gerr

	case opRange:
		off := w.rng.Intn(obj.size)
		l := min(obj.size-off, 1+w.rng.Intn(rangeCap))
		start := time.Now()
		data, gerr := w.client.GetRange(tn.name, tn.password, obj.name, off, l)
		lat = time.Since(start)
		tn.release(obj)
		if gerr == nil && len(data) != l {
			gerr = fmt.Errorf("range %s/%s[%d:+%d]: %d bytes", tn.name, obj.name, off, l, len(data))
		}
		return op, int64(l), lat, gerr

	case opSPut:
		obj = tn.fresh(w.sizes.pick(w.rng))
		r := &blockReader{block: w.block, left: obj.size}
		start := time.Now()
		_, err = w.client.UploadFrom(tn.name, tn.password, obj.name, r, w.pl, transport.UploadOptions{})
		lat = time.Since(start)
		if err == nil {
			tn.release(obj)
		}
		return op, int64(obj.size), lat, err

	case opSGet:
		start := time.Now()
		got, gerr := w.client.GetFileTo(io.Discard, tn.name, tn.password, obj.name)
		lat = time.Since(start)
		tn.release(obj)
		if gerr == nil && got != int64(obj.size) {
			gerr = fmt.Errorf("sget %s/%s: %d bytes, want %d", tn.name, obj.name, got, obj.size)
		}
		return op, int64(obj.size), lat, gerr

	case opUpdate:
		// Sizing read (untimed): the replacement must preserve chunk 0's
		// length or every later get/range against the recorded object
		// size would misfire.
		cur, gerr := w.client.GetChunk(tn.name, tn.password, obj.name, 0)
		if gerr != nil {
			tn.release(obj)
			return op, 0, 0, gerr
		}
		data := make([]byte, len(cur))
		w.rng.Read(data)
		start := time.Now()
		err = w.client.UpdateChunk(tn.name, tn.password, obj.name, 0, data)
		lat = time.Since(start)
		tn.release(obj)
		return op, int64(len(data)), lat, err

	default: // opRemove
		start := time.Now()
		err = w.client.RemoveFile(tn.name, tn.password, obj.name)
		lat = time.Since(start)
		// On failure the object's fate is unknown; keep it out of the
		// pool either way so later reads cannot hit a half-removed file.
		return op, int64(obj.size), lat, err
	}
}

// loop runs steps until deadline, recording measured-window results into
// the worker's recorders and every completion into the timeline.
func (w *worker) loop(deadline, warmEnd time.Time, tl *timeline) {
	for time.Now().Before(deadline) {
		op, n, lat, err := w.step()
		now := time.Now()
		if err != nil {
			n = 0 // failed ops move no accountable payload
		}
		tl.record(now, n, err != nil)
		if !now.After(warmEnd) {
			continue
		}
		r := w.recs[op]
		r.count++
		if err != nil {
			r.errs++
			if r.firstErr == nil {
				r.firstErr = err
			}
		} else {
			r.bytes += n
			r.hist.RecordDuration(lat)
		}
	}
}
