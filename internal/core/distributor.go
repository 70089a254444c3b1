package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
	"repro/internal/wal"
)

// Config assembles a Distributor.
type Config struct {
	// Fleet is the set of cloud providers chunks are scattered over.
	Fleet *provider.Fleet
	// ChunkPolicy maps privacy level → chunk size. Zero value selects
	// privacy.DefaultChunkSizes.
	ChunkPolicy privacy.ChunkSizePolicy
	// DefaultRaid is used when an upload does not choose an assurance
	// level. Zero selects RAID-5, the paper's default.
	DefaultRaid raid.Level
	// StripeWidth is the maximum number of data shards per stripe
	// (default 4). The effective width also never exceeds the number of
	// eligible providers minus parity.
	StripeWidth int
	// VIDs allocates virtual ids. Nil selects a PRF allocator keyed by
	// Secret.
	VIDs VIDAllocator
	// Secret keys the default PRF allocator.
	Secret []byte
	// Parallelism bounds the provider operations a request has in flight,
	// puts or fetches (default 4): an upload's put workers, GetFileTo's
	// fetch workers, a read or delete step's concurrent calls, whatever
	// the window. 1 issues them one at a time in stripe order, which
	// deterministic harnesses rely on.
	Parallelism int
	// StreamWindow bounds the stripes a transfer has in flight, up and
	// down (default 4): an upload's stripes planned or shipping, Upload
	// and UploadStream alike, and GetFileTo's stripes with a chunk being
	// fetched, or fetched and not yet written. Peak distributor memory for
	// the request is O(window × stripe size) either way, independent of
	// file size. 1 yields strict lockstep up (plan→ship→plan→ship);
	// negative is rejected.
	StreamWindow int
	// MisleadSeed makes decoy injection reproducible.
	MisleadSeed int64
	// CacheBytes bounds the distributor's read-side chunk cache in bytes.
	// 0 disables caching (every read goes to the providers); negative is
	// rejected.
	CacheBytes int64
	// HedgeAfter enables hedged reads and caps the hedge delay: when a
	// payload fetch has been in flight this long without an answer, the
	// next rung of the read ladder (mirror, then degraded parity
	// reconstruction) is raced against it instead of waiting for the
	// first to exhaust its retries. The per-rung delay is derived from
	// the launched provider's latency EWMA, clamped to
	// [HedgeAfter/8, HedgeAfter], except that the ceiling never undercuts
	// what the fleet's median provider takes for the same read. 0
	// disables hedging (the ladder stays strictly sequential); negative
	// is rejected.
	HedgeAfter time.Duration
	// Health tunes the per-provider circuit breakers. The zero value
	// selects the health package defaults.
	Health health.Config
	// WALDir enables durable metadata: every commit is logged there
	// before it becomes visible, and New recovers the tables from it.
	// Empty keeps the distributor in-memory (tests, examples).
	WALDir string
	// WALSync picks when log appends reach disk (wal.SyncAlways /
	// SyncGrouped / SyncOff). The zero value is SyncAlways.
	WALSync wal.SyncPolicy
	// SnapshotEvery is the checkpoint cadence in committed records
	// (default 4096): how much log tail a recovery may have to replay.
	SnapshotEvery int
	// WALBugSkipSync plants the lost-commit bug (acknowledged records
	// skip their fsync) for the crash-restart oracle. Harnesses only.
	WALBugSkipSync bool
}

// Distributor is the Cloud Data Distributor. All methods are safe for
// concurrent use.
type Distributor struct {
	// mu is read-mostly: retrievals and table snapshots plan under RLock
	// (planning only reads the committed tables — per-request counters
	// are atomics, the cache and the single-flight group carry their own
	// mutexes), while every mutation and ticket commit/release takes the
	// exclusive lock. No provider I/O ever happens under mu in either
	// mode.
	mu sync.RWMutex

	fleet        *provider.Fleet
	policy       privacy.ChunkSizePolicy
	defaultRaid  raid.Level
	stripeWidth  int
	vids         VIDAllocator
	parallelism  int
	streamWindow int
	hedgeAfter   time.Duration
	misleadSeed  int64 // every write derives its own decoy stream from it (decoyRNG)
	health       *health.Tracker

	clients   map[string]*clientEntry
	chunks    []chunkEntry
	stripes   []stripeEntry
	provCount []int               // committed chunks+parity on each fleet index
	provCL    []privacy.CostLevel // each fleet index's cost level, fixed at New

	// Write-path staging state. Mutations run in plan → ship → commit
	// phases: provider I/O happens without d.mu, so the shards a request
	// has placed but not yet committed must stay visible to concurrent
	// planners (provPending, for load balancing) and to the orphan audit
	// (inflight, so shipped-but-uncommitted blobs are never collected).
	provPending []int           // staged, uncommitted shards per fleet index
	inflight    map[string]int  // virtual id → open tickets referencing it
	reserved    map[string]bool // client+"\x00"+filename of in-flight uploads
	gen         uint64          // bumped on every committed mutation

	counters opCounters
	encNonce uint64 // last reserved AES-CTR nonce; writes take blocks of it under mu
	fidSeq   uint64 // last assigned fileEntry.FID

	// cache holds recovered chunk bytes keyed by (file id, serial,
	// generation); nil when Config.CacheBytes is 0. Lock order: d.mu may
	// be held while taking cache.mu, never the reverse.
	cache *chunkCache

	// flights coalesces concurrent cache misses on the same chunk
	// generation into one provider fetch. It is keyed by the same
	// (fid, serial, gen) triple as the cache, so a coalesced waiter can
	// never be handed bytes from a superseded generation.
	flights flightGroup

	// Durability. wal is assigned once in New and never reassigned (so
	// lock-free reads of the pointer are safe); nil means in-memory.
	// closed (under mu) fails further commits after Close/Crash. The
	// recovery outcome fields are written once in New, before the
	// distributor is published.
	wal                  *wal.Log
	snapshotEvery        int
	closed               bool
	walReplayed          int64
	walRecoveredSnapshot bool
	walTailTruncated     bool
	recoveryOrphans      int64
	walCheckpointErrs    atomic.Int64

	// Following (follow.go). following (under mu) is set by the first
	// Follow and refuses writes of d's own from then on; followLSN (under
	// mu) is the primary's log position d has applied up to. followMu
	// runs one Follow at a time.
	followMu  sync.Mutex
	following bool
	followLSN uint64

	// byteWorkHook, when a test sets it, is called by every write-path
	// stage that works on payload bytes (split, prepare, parity), from
	// where the work happens — the lock-discipline test asserts d.mu is
	// free there. Nil in production.
	byteWorkHook func(stage string)
}

// reserveNoncesLocked takes n consecutive AES-CTR nonces and returns the
// first: the values n steps of a per-chunk counter would have produced,
// as one block, so the encryption itself can run after the unlock.
// Callers hold d.mu.
func (d *Distributor) reserveNoncesLocked(n int) uint64 {
	first := d.encNonce + 1
	d.encNonce += uint64(n)
	return first
}

func (d *Distributor) byteWork(stage string) {
	if d.byteWorkHook != nil {
		d.byteWorkHook(stage)
	}
}

// New validates cfg and builds a Distributor.
func New(cfg Config) (*Distributor, error) {
	if cfg.Fleet == nil || cfg.Fleet.Len() == 0 {
		return nil, fmt.Errorf("%w: empty fleet", ErrConfig)
	}
	policy := cfg.ChunkPolicy
	if len(policy.SizeByLevel) == 0 {
		policy = privacy.DefaultChunkSizes()
	}
	if err := policy.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	defRaid := cfg.DefaultRaid
	if defRaid == 0 {
		defRaid = raid.RAID5
	}
	if !defRaid.Valid() {
		return nil, fmt.Errorf("%w: raid level %v", ErrConfig, defRaid)
	}
	width := cfg.StripeWidth
	if width == 0 {
		width = 4
	}
	if width < 1 {
		return nil, fmt.Errorf("%w: stripe width %d", ErrConfig, width)
	}
	par := cfg.Parallelism
	if par == 0 {
		par = 4
	}
	if par < 1 {
		return nil, fmt.Errorf("%w: parallelism %d", ErrConfig, par)
	}
	window := cfg.StreamWindow
	if window == 0 {
		window = 4
	}
	if window < 1 {
		return nil, fmt.Errorf("%w: stream window %d", ErrConfig, window)
	}
	if cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("%w: cache bytes %d", ErrConfig, cfg.CacheBytes)
	}
	if cfg.HedgeAfter < 0 {
		return nil, fmt.Errorf("%w: hedge after %v", ErrConfig, cfg.HedgeAfter)
	}
	vids := cfg.VIDs
	if vids == nil {
		secret := cfg.Secret
		if len(secret) == 0 {
			secret = []byte("cloud-data-distributor")
		}
		vids = NewPRFAllocator(secret)
	}
	d := &Distributor{
		fleet:        cfg.Fleet,
		policy:       policy,
		defaultRaid:  defRaid,
		stripeWidth:  width,
		vids:         vids,
		parallelism:  par,
		streamWindow: window,
		hedgeAfter:   cfg.HedgeAfter,
		misleadSeed:  cfg.MisleadSeed,
		health:       health.NewTracker(cfg.Fleet.Len(), cfg.Health),
		clients:      make(map[string]*clientEntry),
		provCount:    make([]int, cfg.Fleet.Len()),
		provCL:       make([]privacy.CostLevel, cfg.Fleet.Len()),
		provPending:  make([]int, cfg.Fleet.Len()),
		inflight:     make(map[string]int),
		reserved:     make(map[string]bool),
		cache:        newChunkCache(cfg.CacheBytes),
	}
	for i, p := range cfg.Fleet.All() {
		d.provCL[i] = p.Info().CL
	}
	if cfg.WALDir != "" {
		if err := d.recoverWAL(cfg); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// RegisterClient creates a client record. Registering an existing client
// is an error.
func (d *Distributor) RegisterClient(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty client name", ErrConfig)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.clients[name]; ok {
		return fmt.Errorf("%w: client %q already registered", ErrExists, name)
	}
	return d.commitLocked(&walRecord{Op: "register", Client: name, Gen: d.gen}, nil)
}

// hashPassword derives the stored credential: the distributor keeps only
// SHA-256 digests so a metadata leak (or an over-curious secondary
// distributor) does not expose client passwords.
func hashPassword(password string) string {
	sum := sha256.Sum256([]byte(password))
	return hex.EncodeToString(sum[:])
}

// AddPassword associates a ⟨password, PL⟩ pair with a client: the group of
// users holding this password may access chunks up to that privacy level.
// Only the password's hash is retained.
func (d *Distributor) AddPassword(client, password string, pl privacy.Level) error {
	if password == "" {
		return fmt.Errorf("%w: empty password", ErrConfig)
	}
	if !pl.Valid() {
		return fmt.Errorf("%w: privacy level %v", ErrConfig, pl)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.clients[client]
	if !ok {
		return ErrAuth
	}
	h := hashPassword(password)
	if _, dup := c.Passwords[h]; dup {
		return fmt.Errorf("%w: password already registered", ErrExists)
	}
	return d.commitLocked(&walRecord{Op: "passwd", Client: client, PassHash: h, PassPL: pl, Gen: d.gen}, nil)
}

// auth resolves a (client, password) pair to the client entry and the
// privilege level the password unlocks. Callers hold d.mu.
func (d *Distributor) auth(client, password string) (*clientEntry, privacy.Level, error) {
	c, ok := d.clients[client]
	if !ok {
		return nil, 0, ErrAuth
	}
	pl, ok := c.Passwords[hashPassword(password)]
	if !ok {
		return nil, 0, ErrAuth
	}
	return c, pl, nil
}

// authorize additionally enforces privilege ≥ need — the paper's rule "If
// the privilege level of the password is greater than or equal to the
// privilege level of the chunk(s)".
func (d *Distributor) authorize(client, password string, need privacy.Level) (*clientEntry, error) {
	c, pl, err := d.auth(client, password)
	if err != nil {
		return nil, err
	}
	if pl < need {
		return nil, fmt.Errorf("%w: password unlocks %v, chunk requires %v", ErrAuth, pl, need)
	}
	return c, nil
}

// authFile authenticates and resolves (client, filename), enforcing the
// same rule against the file's privacy level — which is every one of its
// chunks' — with the password hashed once. Callers hold d.mu.
func (d *Distributor) authFile(client, password, filename string) (*clientEntry, *fileEntry, error) {
	c, pl, err := d.auth(client, password)
	if err != nil {
		return nil, nil, err
	}
	fe, ok := c.Files[filename]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoSuchFile, filename)
	}
	if pl < fe.PL {
		return nil, nil, fmt.Errorf("%w: password unlocks %v, chunk requires %v", ErrAuth, pl, fe.PL)
	}
	return c, fe, nil
}

// fileChangedLocked is the generation re-check every mutation and repair
// commits behind: whether the file planned against — entry fe at
// generation gen — has since been removed, replaced or mutated. Callers
// hold d.mu.
func (d *Distributor) fileChangedLocked(client, filename string, fe *fileEntry, gen uint64) bool {
	feNow, ok := d.clients[client].Files[filename]
	return !ok || feNow != fe || feNow.Gen != gen
}

// transientRetries bounds retry attempts for injected/transient provider
// failures.
const transientRetries = 3

// withTransientRetry retries fn when it fails with the providers'
// transient-fault error (the failure-injection model); outages and
// not-found errors surface immediately.
func (d *Distributor) withTransientRetry(fn func() error) error {
	var err error
	for attempt := 0; attempt < transientRetries; attempt++ {
		err = fn()
		if err == nil || !errors.Is(err, provider.ErrInjected) {
			return err
		}
		d.counters.transientRetries.Add(1)
	}
	return err
}

// providerOp runs fn against fleet provider provIdx with transient
// retries, feeding the final outcome into the health tracker. A
// not-found reply counts as a success: the provider answered
// authoritatively, it just has no such key. Successful operations also
// feed the provider's latency EWMA, which the hedged read path uses to
// decide how long to wait before racing the next rung.
func (d *Distributor) providerOp(provIdx int, fn func(p provider.Provider) error) error {
	p, err := d.fleet.At(provIdx)
	if err != nil {
		return err
	}
	start := time.Now()
	err = d.withTransientRetry(func() error { return fn(p) })
	ok := err == nil || errors.Is(err, provider.ErrNotFound)
	d.health.Record(provIdx, ok)
	if ok {
		d.health.RecordLatency(provIdx, time.Since(start))
	}
	return err
}

// gatedPut is a providerOp Put that consults the circuit breaker first.
// Only write paths that can fail over use it; reads, deletes and repair
// traffic stay ungated (their outcomes are still recorded, so a
// successful read closes an open circuit early). A failed attempt takes
// l the moment the provider answers, before anything else runs.
func (d *Distributor) gatedPut(provIdx int, vid string, payload []byte, l *putLatch) error {
	if !d.health.Allow(provIdx) {
		return fmt.Errorf("%w: provider %d", ErrCircuitOpen, provIdx)
	}
	return d.providerOp(provIdx, func(p provider.Provider) error {
		err := p.Put(vid, payload)
		if err != nil {
			l.take()
		}
		return err
	})
}

// fanOutN runs fn(0..n-1) with bounded parallelism. All jobs run to
// completion; the distinct failures are joined (joinDistinct) so a
// multi-provider failure is diagnosable from one message instead of
// whichever error won the race.
func (d *Distributor) fanOutN(n int, fn func(int) error) error {
	if n == 0 {
		return nil
	}
	errs := make([]error, n)
	d.runParallel(n, func(i int) { errs[i] = fn(i) })
	return joinDistinct(errs)
}

// joinDistinct joins the distinct failures among errs — several providers
// often report the same outage string — or is nil when there are none.
func joinDistinct(errs []error) error {
	var distinct []error
	var seen map[string]bool
	for _, err := range errs {
		if err == nil {
			continue
		}
		if seen == nil {
			seen = make(map[string]bool)
		}
		if seen[err.Error()] {
			continue
		}
		seen[err.Error()] = true
		distinct = append(distinct, err)
	}
	if distinct == nil {
		return nil
	}
	return errors.Join(distinct...)
}
