package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"

	"repro/internal/privacy"
	"repro/internal/raid"
	"repro/internal/transport"
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opRange
	opUpdate
	opRemove
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "range", "update", "remove"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated operation. Generators choose it from the keyspace
// as it stands; the executor runs it and then applies its effect.
type op struct {
	kind   opKind
	obj    *object // target; for a put, the object about to exist
	idx    int     // position of obj in ks.live (all but put)
	off, n int     // byte window of a range; n is also an update's length
	patch  uint64  // update: stream that replaces chunk 0
}

// generator yields a worker's operation sequence. The sequence depends
// only on the generator's seed and on the operations already applied to
// its keyspace, never on time.
type generator interface {
	next() op
	// boundary reports whether the next operation starts a new cycle;
	// closed-loop workers stop only on a boundary, so no cycle is cut.
	boundary() bool
}

const rangeCap = 64 << 10

// mixedGen is the small-object mix: put 15 / get 50 / range 15 /
// update 5 / remove 15 over sizes 4 KiB 60 % / 64 KiB 30 % / 256 KiB
// 10 %. Puts and removes have equal weight, so the population (and with
// it provider memory and table size) stays where the preload left it.
type mixedGen struct {
	rng    *rand.Rand
	ks     *keyspace
	chunk0 int // chunk size at the workload's PL: the length an update replaces
	floor  int
}

var (
	mixWeights  = [numKinds]int{opPut: 15, opGet: 50, opRange: 15, opUpdate: 5, opRemove: 15}
	smallSizes  = [3]int{4 << 10, 64 << 10, 256 << 10}
	smallShares = [3]int{60, 30, 10}
)

func pickWeighted(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := rng.Intn(total)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	return len(weights) - 1
}

func (g *mixedGen) boundary() bool { return true }

func (g *mixedGen) next() op {
	kind := opKind(pickWeighted(g.rng, mixWeights[:]))
	if len(g.ks.live) <= g.floor && kind == opRemove {
		kind = opPut
	}
	if kind == opPut {
		return g.ks.mint(g.rng, smallSizes[pickWeighted(g.rng, smallShares[:])])
	}
	idx := g.rng.Intn(len(g.ks.live))
	o := op{kind: kind, obj: g.ks.live[idx], idx: idx}
	switch kind {
	case opRange:
		o.off = g.rng.Intn(o.obj.size)
		o.n = min(o.obj.size-o.off, 1+g.rng.Intn(rangeCap))
	case opUpdate:
		o.n = min(o.obj.size, g.chunk0)
		o.patch = g.rng.Uint64() | 1
	}
	return o
}

// mint returns a put of a fresh object of the given size.
func (ks *keyspace) mint(rng *rand.Rand, size int) op {
	o := &object{key: ks.next, size: size, seed: rng.Uint64() | 1}
	ks.next++
	return op{kind: opPut, obj: o}
}

// cycleGen is the large-object loop: put a fresh object, optionally read
// it back whole, read `ranges` windows of rangeLen bytes at seeded
// offsets, remove it. The object it works on is always the last live one;
// resident objects from the preload sit below it untouched.
type cycleGen struct {
	rng      *rand.Rand
	ks       *keyspace
	size     int
	get      bool
	ranges   int
	rangeLen int
	phase    int
}

func (g *cycleGen) boundary() bool { return g.phase == 0 }

func (g *cycleGen) next() op {
	phase := g.phase
	g.phase++
	if phase == 0 {
		return g.ks.mint(g.rng, g.size)
	}
	idx := len(g.ks.live) - 1
	o := op{obj: g.ks.live[idx], idx: idx}
	reads := 0
	if g.get {
		reads = 1
	}
	switch {
	case phase == 1 && g.get:
		o.kind = opGet
	case phase <= reads+g.ranges:
		o.kind = opRange
		o.n = min(g.rangeLen, g.size)
		o.off = g.rng.Intn(g.size - o.n + 1)
	default:
		o.kind = opRemove
		g.phase = 0
	}
	return o
}

// readerGen is the point-read stream of reads-under-write: whole-file
// reads of the resident objects, every fourth request a 4 KiB range.
type readerGen struct {
	rng *rand.Rand
	ks  *keyspace
	i   int
}

func (g *readerGen) boundary() bool { return true }

func (g *readerGen) next() op {
	g.i++
	idx := g.rng.Intn(len(g.ks.live))
	o := op{kind: opGet, obj: g.ks.live[idx], idx: idx}
	if g.i%4 == 0 {
		o.kind = opRange
		o.n = min(4<<10, o.obj.size)
		o.off = g.rng.Intn(o.obj.size - o.n + 1)
	}
	return o
}

// workerSpec describes one load goroutine: the tenant it owns, what that
// tenant holds before the window opens, and how it issues operations.
type workerSpec struct {
	resident []int // sizes of the objects preloaded into the tenant
	warmup   int   // generator operations run, untimed, before the window
	// rate > 0 makes the worker open loop: one request every 1/rate
	// seconds, each timed from when it was due. Open-loop workers follow
	// the closed-loop ones: they run for as long as those do.
	rate float64
	opts transport.UploadOptions
	gen  func(rng *rand.Rand, ks *keyspace) generator
}

// spec is one named workload.
type spec struct {
	name string
	why  string
	pl   privacy.Level
	// stream selects UploadFrom/GetFileTo (raw bodies, windowed pipeline)
	// over Upload/GetFile (buffered, base64 in JSON).
	stream  bool
	workers []workerSpec
	// reads names the operation kinds that count as the workload's small
	// reads for read_p50_ms / read_p90_ms.
	reads []opKind
	// minCycles keeps the window open past --seconds until every
	// closed-loop worker has finished this many cycles, so the medians
	// the driver gates always have their samples.
	minCycles int
	// kernelBytes is the object size the byte kernels are timed on in a
	// traced run: the workload's own, capped at 4 MiB.
	kernelBytes int
	// countOps is the stretch of the traced client pass over which the
	// exact counts are taken: whole turns of the serial pass.
	countOps int
	// baseline marks a workload that exists only to be compared with a
	// gated one: it is not in BENCHMARK.json and prints no result line.
	baseline bool
}

const (
	mib = 1 << 20
	kib = 1 << 10
)

// smallResident lists n object sizes in the exact 60/30/10 proportion, so
// the preloaded bytes — and stored_bytes_per_user_byte — do not depend on
// the seed; only order and contents do.
func smallResident(n int) []int {
	out := make([]int, 0, n)
	for i, share := range smallShares {
		for c := n * share / 100; c > 0; c-- {
			out = append(out, smallSizes[i])
		}
	}
	for len(out) < n {
		out = append(out, smallSizes[0])
	}
	return out
}

func repeatSize(n, size int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// encryptKey is the reads-under-write writer's 32-byte AES key. It is
// fixed: the key is not a property the system's cost depends on.
var encryptKey = []byte("benchmark-aes-256-key-0123456789")

// workloads returns the four gated workloads plus reads-alone, the
// reads-under-write reader without its writer, which exists only to show
// how much of read_p90_ms the writer causes. smoke shrinks every size
// and count so the set runs in a few seconds for the tier-1 test.
func workloads(smoke bool) []spec {
	div := 1
	if smoke {
		div = 8
	}
	chunk := func(pl privacy.Level) int {
		n, _ := privacy.DefaultChunkSizes().Size(pl)
		return n
	}
	mixed := func(rng *rand.Rand, ks *keyspace) generator {
		return &mixedGen{rng: rng, ks: ks, chunk0: chunk(privacy.Moderate), floor: len(ks.live) / 2}
	}
	smallWorker := workerSpec{resident: smallResident(512 / div), warmup: 1200 / div, gen: mixed}
	cycle := func(size, ranges int, get bool) func(*rand.Rand, *keyspace) generator {
		return func(rng *rand.Rand, ks *keyspace) generator {
			return &cycleGen{rng: rng, ks: ks, size: size, get: get, ranges: ranges, rangeLen: 64 * kib}
		}
	}
	// A cycle is put, get, 8 ranges, remove = 11 operations.
	const cycleOps = 11
	reader := workerSpec{
		resident: repeatSize(64/div, 16*kib), warmup: 256 / div, rate: 100,
		gen: func(rng *rand.Rand, ks *keyspace) generator { return &readerGen{rng: rng, ks: ks} },
	}
	minCycles := 24
	if smoke {
		minCycles = 1
	}
	return []spec{
		{
			name: "small-mixed",
			why:  "2 closed-loop workers, 4-256 KiB objects at PL2, put/get/range/update/remove mix: per-op overhead (HTTP, JSON+base64, WAL, plan/commit) dominates, byte kernels idle",
			pl:   privacy.Moderate, workers: []workerSpec{smallWorker, smallWorker},
			reads: []opKind{opGet, opRange}, kernelBytes: 64 * kib, countOps: 2000 / div,
		},
		{
			name: "stream-large",
			why:  "1 worker streaming 32 MiB objects at PL0 over RAID-5: chunk split+SHA-256, parity, raw-body transport and provider blobs do the work, per-op metadata is negligible",
			pl:   privacy.Public, stream: true,
			workers: []workerSpec{{
				resident: []int{32 * mib / div}, warmup: 6 * cycleOps,
				gen: cycle(32*mib/div, 8, true),
			}},
			reads: []opKind{opRange}, minCycles: minCycles, kernelBytes: 4 * mib, countOps: 4 * cycleOps,
		},
		{
			name: "defended-large",
			why:  "1 worker, buffered 4 MiB objects at PL3 (8 KiB chunks), 25% misleading bytes, RAID-6, plus range reads: the paper's highly-sensitive path, ~770 provider puts per object",
			pl:   privacy.High,
			workers: []workerSpec{{
				resident: []int{4 * mib / div}, warmup: 6 * cycleOps,
				opts: transport.UploadOptions{Assurance: raid.RAID6, MisleadFraction: 0.25},
				gen:  cycle(4*mib/div, 8, true),
			}},
			reads: []opKind{opRange}, minCycles: minCycles, kernelBytes: 4 * mib / div, countOps: 4 * cycleOps,
		},
		{
			name: "reads-under-write",
			why:  "open-loop 100 req/s reader of 16 KiB PL3 objects beside a closed-loop writer of encrypted 8 MiB PL3 objects: upper read percentiles measure how long writes hold the table lock",
			pl:   privacy.High,
			workers: []workerSpec{
				{warmup: 10 * 2, opts: transport.UploadOptions{EncryptKey: encryptKey}, gen: cycle(8*mib/div, 0, false)},
				reader,
			},
			reads: []opKind{opGet, opRange}, minCycles: minCycles, kernelBytes: 4 * mib / div, countOps: 10 * (2 + 16),
		},
		{
			name: "reads-alone", baseline: true,
			why:     "the reads-under-write reader with no writer: the baseline that shows what the writer adds to read_p90_ms (not gated)",
			pl:      privacy.High,
			workers: []workerSpec{reader},
			reads:   []opKind{opGet, opRange}, kernelBytes: 64 * kib, countOps: 10 * 16,
		},
	}
}

// gatedWorkloads is the set BENCHMARK.json names.
func gatedWorkloads(smoke bool) []spec {
	var out []spec
	for _, sp := range workloads(smoke) {
		if !sp.baseline {
			out = append(out, sp)
		}
	}
	return out
}

func findSpec(name string, smoke bool) (spec, bool) {
	for _, s := range workloads(smoke) {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// workerRNG derives worker i's stream from the run seed.
func workerRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919 + 1))
}

// sequenceHash names the first n operations of every worker of sp for
// seed, applying each operation to the model as if it had succeeded. Two
// runs with the same hash issued the same requests.
func sequenceHash(sp spec, seed int64, n int) string {
	h := sha256.New()
	var rec [1 + 5*8]byte
	for i, ws := range sp.workers {
		rng := workerRNG(seed, i)
		ks := &keyspace{}
		for _, size := range shuffled(rng, ws.resident) {
			ks.apply(ks.mint(rng, size))
		}
		gen := ws.gen(rng, ks)
		for j := 0; j < n; j++ {
			o := gen.next()
			rec[0] = byte(o.kind)
			for k, v := range []uint64{uint64(o.obj.key), uint64(o.obj.size), o.obj.seed, uint64(o.off), uint64(o.n) ^ o.patch} {
				binary.LittleEndian.PutUint64(rec[1+8*k:], v)
			}
			h.Write(rec[:])
			ks.apply(o)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func shuffled(rng *rand.Rand, sizes []int) []int {
	out := append([]int(nil), sizes...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
