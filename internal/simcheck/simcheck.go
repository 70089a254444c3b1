package simcheck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/health"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
	"repro/internal/wal"
)

// Config parameterizes one simulation run. The run is a pure function
// of this struct: same config, same trace hash.
//
// A run is Shards namespace shards behind the production consistent-hash
// ring (dht.BalancedRing over dht.FileKey), each a primary distributor
// plus Followers followers of its WAL over the shard's own provider
// fleet. The single-distributor run is one shard with no followers.
type Config struct {
	Seed int64
	// Ops is the number of workload operations (default 300).
	Ops int
	// Shards is the number of namespace shards (default 1).
	Shards int
	// Followers is the number of WAL followers per shard (default 0):
	// read-only secondaries that serve the shard's reads while its
	// primary is down. Followers make every primary durable.
	Followers int
	// Providers is each shard's fleet size, >= 8 (default 12). The first
	// Providers-4 are High-PL; the tail steps down Moderate, Moderate,
	// Low, Public so placement legality is actually exercised.
	Providers int
	// CheckEvery is the op interval between quiescent checkpoints
	// (default 40). A final checkpoint always runs after the last op.
	CheckEvery int
	// MaxFileBytes caps generated file sizes (default 16 KiB).
	MaxFileBytes int
	// CacheBytes sizes the distributor's read cache. 0 disables it;
	// DefaultConfig derives on/off from the seed so both paths are swept.
	CacheBytes int64

	// Per-op fault probabilities, drawn per provider operation.
	PutFailRate    float64
	GetFailRate    float64
	DeleteFailRate float64
	CorruptRate    float64 // in-flight: right length, wrong bytes
	DelayRate      float64 // virtual-clock delay (skews breaker healing)

	// Window fault probabilities, drawn once per workload op.
	BlackoutRate  float64 // full-fleet outage for a few ops
	PartitionRate float64 // one provider unreachable for a while
	OutageRate    float64 // one provider erroring for a while
	CrashRate     float64 // provider dies mid-write after a few puts
	// FollowerOutageRate is the per-op chance that one shard's follower
	// is cut off from its primary for a few ops; it catches up when the
	// window heals. PrimaryOutageRate is the chance that one shard's
	// primary goes down instead: its writes answer core.ErrUnavailable
	// and its reads are served by a follower. Both need Followers > 0.
	FollowerOutageRate float64
	PrimaryOutageRate  float64

	// RotPerCheckpoint injects that many at-rest bit-rot corruptions
	// after each checkpoint, budgeted to one per stripe so every rot
	// stays repairable (the next scrub must heal all of them).
	RotPerCheckpoint int

	// RestartEvery crashes a seeded shard's primary (power-loss
	// semantics: no drain, no final checkpoint) every that many ops and
	// re-opens it from its WAL directory; its followers then follow the
	// recovered primary, and a full oracle checkpoint runs against the
	// recovered state. 0 disables restarts. A non-zero value makes the
	// run durable: each primary opens a WAL in a per-run temp directory
	// at SyncAlways (grouped sync flushes on a wall-clock timer, which
	// would break trace determinism).
	RestartEvery int

	// BugDropDeletes plants a rollback bug: every provider delete is
	// acknowledged but silently dropped, leaving orphans the bookkeeping
	// cannot explain. Used to prove the orphan invariant has teeth.
	BugDropDeletes bool
	// BugLoseLastCommit plants the classic lost-commit bug: WAL records
	// are acknowledged at SyncAlways but never actually fsynced, so a
	// crash silently forgets acknowledged commits. The post-recovery
	// oracle checkpoint must catch it (generation going backwards / the
	// file set diverging from the model). Implies a durable run.
	BugLoseLastCommit bool
	// DarkProvider is the sustained-outage scenario:
	// provider 0 stays up but fails every data-plane op for the whole
	// run, so failover and circuit breaking carry the workload.
	DarkProvider bool
}

// DefaultConfig returns the standard sweep configuration for a seed.
func DefaultConfig(seed int64) Config {
	cfg := Config{
		Seed:             seed,
		Ops:              300,
		Providers:        12,
		CheckEvery:       40,
		MaxFileBytes:     16 << 10,
		PutFailRate:      0.03,
		GetFailRate:      0.03,
		DeleteFailRate:   0.05,
		CorruptRate:      0.03,
		DelayRate:        0.01,
		BlackoutRate:     0.004,
		PartitionRate:    0.010,
		OutageRate:       0.008,
		CrashRate:        0.006,
		RotPerCheckpoint: 2,
	}
	if seed%2 == 1 {
		cfg.CacheBytes = 8 << 20
	}
	return cfg
}

// DefaultCrashConfig is DefaultConfig plus a seed-derived crash-restart
// cadence, so a sweep exercises different (restart × checkpoint × fault
// window) phase alignments.
func DefaultCrashConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.RestartEvery = 30 + int(seed%7)*5
	return cfg
}

// DefaultShardConfig returns the sharded sweep configuration for a seed:
// 3- and 4-shard namespaces, one follower per shard, and topology windows
// and restarts frequent enough that each fires in a few hundred ops.
// Provider-level faults stay off, so every read — a follower's while its
// primary is down included — must succeed.
func DefaultShardConfig(seed int64) Config {
	cfg := Config{
		Seed:               seed,
		Ops:                240,
		Shards:             3 + int(seed%2),
		Followers:          1,
		Providers:          8,
		CheckEvery:         30,
		MaxFileBytes:       8 << 10,
		FollowerOutageRate: 0.04,
		PrimaryOutageRate:  0.02,
		RestartEvery:       45 + int(seed%5)*5,
	}
	if seed%4 >= 2 { // on and off at either shard count
		cfg.CacheBytes = 8 << 20
	}
	return cfg
}

// repro names the test whose -seed path rebuilds this config's defaults,
// so a violation's repro line replays the failing schedule.
func (cfg Config) repro() string {
	switch {
	case cfg.Shards > 1 || cfg.Followers > 0:
		return "TestSimCheckSharded"
	case cfg.RestartEvery > 0 || cfg.BugLoseLastCommit:
		return "TestSimCheckCrashRestart"
	default:
		return "TestSimCheck$"
	}
}

// Result summarizes a completed run.
type Result struct {
	Seed        int64
	Ops         int
	TraceHash   string
	Checkpoints int
	Restarts    int // crash-restart cycles survived

	UploadsAttempted int
	UploadsOK        int
	StreamUploads    int // uploads driven through UploadStream (io.Reader path)
	ReadsAttempted   int
	ReadsOK          int
	StreamReads      int // whole-file reads driven through GetFileTo (io.Writer path)
	Updates          int
	Removes          int
	Scrubs           int
	Decommissions    int
	DrillReads       int
	OrphansCollected int

	FollowerOutages int
	PrimaryOutages  int
	Replicated      int // records followers applied one by one

	Faults FaultCounts
	// Metrics are the first shard's primary's counters.
	Metrics core.OpMetrics
}

// Violation is an invariant failure. Its Error() carries a one-line
// repro command with the seed, so any sweep failure is replayable.
type Violation struct {
	Seed      int64
	Ops       int
	Op        int
	Invariant string
	Detail    string
	Repro     string   // test to replay this schedule under
	Trace     []string // tail of the op/fault trace
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simcheck: invariant %q violated at op %d: %s\n", v.Invariant, v.Op, v.Detail)
	fmt.Fprintf(&b, "repro: go test ./internal/simcheck -run '%s' -seed=%d -ops=%d", v.Repro, v.Seed, v.Ops)
	if len(v.Trace) > 0 {
		fmt.Fprintf(&b, "\ntrace tail:\n  %s", strings.Join(v.Trace, "\n  "))
	}
	return b.String()
}

// shard is one namespace partition with the single harness's parts: a
// fleet, its fault injector, the model of the files the ring routes to
// it, and a primary with its followers.
type shard struct {
	name      string
	members   []*core.Distributor               // [0] primary, rest followers
	rebuild   func() (*core.Distributor, error) // re-open the primary from its WAL dir
	fleet     *provider.Fleet
	hooked    []*provider.MemProvider
	inj       *injector
	m         *model
	down      int // the member an open topology window holds down, -1 none
	downUntil int // op index that window heals at
}

// reader is the member a read goes to: the first one up.
func (sh *shard) reader() *core.Distributor {
	if sh.down == 0 {
		return sh.members[1]
	}
	return sh.members[0]
}

// errPrimaryDown is what a write routed to a shard whose primary is down
// answers: the followers serve reads, and refuse writes.
var errPrimaryDown = fmt.Errorf("%w: primary distributor down", core.ErrUnavailable)

// runner holds one run's moving parts.
type runner struct {
	cfg    Config
	ring   *dht.BalancedRing
	shards []*shard
	provPL []privacy.Level
	tr     *trace
	rng    *rand.Rand // workload stream, independent of the injectors'
	topo   *rand.Rand // which shard a fleet-wide op, window or restart hits
	tick   func(time.Duration)
	res    Result

	nameSeq int
	clients []string
}

const password = "root"

// Run executes one simulation. It returns the run summary and, on an
// invariant violation, a *Violation as the error.
func Run(cfg Config) (Result, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 300
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Providers == 0 {
		cfg.Providers = 12
	}
	if cfg.Providers < 8 {
		return Result{}, fmt.Errorf("simcheck: need >= 8 providers, got %d", cfg.Providers)
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 40
	}
	if cfg.MaxFileBytes <= 0 {
		cfg.MaxFileBytes = 16 << 10
	}

	tr := newTrace()
	tr.addf("simcheck seed=%d ops=%d shards=%d followers=%d providers=%d cache=%d dark=%v bug=%v restart=%d lostcommit=%v",
		cfg.Seed, cfg.Ops, cfg.Shards, cfg.Followers, cfg.Providers, cfg.CacheBytes, cfg.DarkProvider,
		cfg.BugDropDeletes, cfg.RestartEvery, cfg.BugLoseLastCommit)

	// The breaker clock is virtual: one tick per op plus injected delay
	// jitter. Cooldowns therefore elapse in op counts, deterministically.
	var vnow atomic.Int64
	r := &runner{
		cfg: cfg, tr: tr,
		provPL:  make([]privacy.Level, cfg.Providers),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		topo:    rand.New(rand.NewSource(cfg.Seed ^ 0x70901091)),
		tick:    func(delta time.Duration) { vnow.Add(int64(delta)) },
		res:     Result{Seed: cfg.Seed, Ops: cfg.Ops},
		clients: []string{"alice", "bob"},
	}
	for i := range r.provPL {
		switch cfg.Providers - 1 - i {
		case 0:
			r.provPL[i] = privacy.Public
		case 1:
			r.provPL[i] = privacy.Low
		case 2, 3:
			r.provPL[i] = privacy.Moderate
		default:
			r.provPL[i] = privacy.High
		}
	}

	// A durable run keeps each primary's WAL in a per-run temp directory;
	// every restart re-opens it against the same fleet and the same
	// virtual clock.
	walRoot := ""
	if cfg.RestartEvery > 0 || cfg.BugLoseLastCommit || cfg.Followers > 0 {
		dir, err := os.MkdirTemp("", "simcheck-wal-")
		if err != nil {
			return r.res, err
		}
		defer os.RemoveAll(dir)
		walRoot = dir
	}
	clock := func() time.Time { return time.Unix(0, vnow.Load()) }
	names := make([]string, cfg.Shards)
	for s := range names {
		names[s] = fmt.Sprintf("shard-%02d", s)
		walDir := ""
		if walRoot != "" {
			walDir = filepath.Join(walRoot, names[s])
		}
		sh, err := r.newShard(s, names[s], walDir, clock)
		if err != nil {
			return r.res, err
		}
		r.shards = append(r.shards, sh)
	}
	ring, err := dht.NewBalancedRing(dht.DefaultVNodes, names...)
	if err != nil {
		return r.res, err
	}
	r.ring = ring

	v := r.loop()
	for _, sh := range r.shards {
		r.res.Faults.add(sh.inj.faultCounts())
	}
	r.res.Metrics = r.shards[0].members[0].Metrics()
	r.res.TraceHash = r.tr.hashHex()
	if v != nil {
		return r.res, v
	}
	return r.res, nil
}

// newShard builds shard s: a PL-laddered fleet of hooked providers, its
// injector, and a primary (durable when walDir is set) with its followers
// level with it.
func (r *runner) newShard(s int, name, walDir string, clock func() time.Time) (*shard, error) {
	fleet, err := provider.NewFleet()
	if err != nil {
		return nil, err
	}
	sh := &shard{name: name, fleet: fleet, m: newModel(), down: -1}
	for i, pl := range r.provPL {
		mem, err := provider.New(provider.Info{Name: fmt.Sprintf("sp%02d", i), PL: pl, CL: 1}, provider.Options{})
		if err != nil {
			return nil, err
		}
		sh.hooked = append(sh.hooked, mem)
		if err := fleet.Add(sh.hooked[i]); err != nil {
			return nil, err
		}
	}
	sh.inj = newInjector(r.cfg, r.cfg.Seed^0x5eedfa17+int64(s), r.tr, r.tick, sh.hooked)
	build := func(dir string) (*core.Distributor, error) {
		return core.New(core.Config{
			Fleet:        fleet,
			StripeWidth:  3,
			Parallelism:  1, // sequential provider I/O, an upload's puts in stripe order: determinism anchor
			StreamWindow: 1, // lockstep uploads (a stripe is placed once the last has shipped): same anchor
			Secret:       []byte("simcheck-prf-secret"),
			MisleadSeed:  r.cfg.Seed,
			CacheBytes:   r.cfg.CacheBytes,
			Health: health.Config{
				Cooldown: 8 * time.Millisecond,
				Clock:    clock,
			},
			WALDir:         dir,
			WALSync:        wal.SyncAlways, // grouped flushes on wall-clock: nondeterministic
			SnapshotEvery:  64,
			WALBugSkipSync: r.cfg.BugLoseLastCommit,
		})
	}
	sh.rebuild = func() (*core.Distributor, error) { return build(walDir) }
	dir := walDir
	for f := 0; f <= r.cfg.Followers; f++ {
		d, err := build(dir)
		if err != nil {
			return nil, err
		}
		sh.members = append(sh.members, d)
		// Only the primary is durable: a follower holds replicated tables
		// in memory and re-seeds from a snapshot if it falls off the
		// primary's log, the production follower contract.
		dir = ""
	}
	for _, c := range r.clients {
		if err := sh.members[0].RegisterClient(c); err != nil {
			return nil, err
		}
		if err := sh.members[0].AddPassword(c, password, privacy.High); err != nil {
			return nil, err
		}
	}
	if v := r.sync(0, sh); v != nil {
		return nil, v
	}
	return sh, nil
}

// loop drives the workload, the fault schedule and the checkpoints.
func (r *runner) loop() *Violation {
	for i := 0; i < r.cfg.Ops; i++ {
		if r.cfg.RestartEvery > 0 && i > 0 && i%r.cfg.RestartEvery == 0 {
			if v := r.restart(i); v != nil {
				return v
			}
			// Every invariant must hold against the freshly recovered
			// state before the workload resumes.
			if v := r.checkpoint(i); v != nil {
				return v
			}
		}
		if v := r.windows(i); v != nil {
			return v
		}
		for _, sh := range r.shards {
			sh.inj.atOp(i)
		}
		if v := r.step(i); v != nil {
			return v
		}
		if (i+1)%r.cfg.CheckEvery == 0 {
			if v := r.checkpoint(i); v != nil {
				return v
			}
		}
	}
	if r.cfg.Ops%r.cfg.CheckEvery != 0 {
		return r.checkpoint(r.cfg.Ops - 1)
	}
	return nil
}

// owner routes a file key to its shard with the transport router's hash,
// so the harness exercises the production partition.
func (r *runner) owner(client, name string) *shard {
	node, err := r.ring.Successor(dht.FileKey(client, name))
	if err != nil {
		panic("simcheck: empty ring: " + err.Error())
	}
	for _, sh := range r.shards {
		if sh.name == node {
			return sh
		}
	}
	panic("simcheck: ring returned unknown shard " + node)
}

// sync brings every up follower of sh level with its primary. A down
// primary took no write, so there is nothing to follow.
func (r *runner) sync(i int, sh *shard) *Violation {
	if sh.down == 0 {
		return nil
	}
	for f := 1; f < len(sh.members); f++ {
		if sh.down == f {
			continue // cut off: it catches up when its window heals
		}
		rep, err := sh.members[f].Follow(sh.members[0])
		if err != nil {
			return r.violation(i, "replication", fmt.Sprintf("%s follower %d: %v", sh.name, f, err))
		}
		r.res.Replicated += rep.Records
	}
	return nil
}

// write runs a mutation on sh's primary and brings the followers level
// with whatever it committed, failed or not. A down primary answers
// errPrimaryDown without running it.
func (r *runner) write(i int, sh *shard, op func(*core.Distributor) error) (*Violation, error) {
	if sh.down == 0 {
		return nil, errPrimaryDown
	}
	err := op(sh.members[0])
	return r.sync(i, sh), err
}

// heal closes sh's open topology window. A healed follower catches up
// before it may serve, so it never answers from stale tables.
func (r *runner) heal(i int, sh *shard) *Violation {
	r.tr.addf("op=%d %s member=%d up", i, sh.name, sh.down)
	sh.down = -1
	return r.sync(i, sh)
}

// windows heals expired topology windows and may open one new one on a
// seeded shard: a follower cut off from its primary, or the primary down.
func (r *runner) windows(i int) *Violation {
	for _, sh := range r.shards {
		if sh.down >= 0 && i >= sh.downUntil {
			if v := r.heal(i, sh); v != nil {
				return v
			}
		}
	}
	if r.cfg.Followers == 0 {
		return nil
	}
	roll, sh := r.topo.Float64(), r.shards[r.topo.Intn(len(r.shards))]
	if sh.down >= 0 {
		return nil
	}
	switch {
	case roll < r.cfg.FollowerOutageRate:
		sh.down = 1 + r.topo.Intn(r.cfg.Followers)
		r.res.FollowerOutages++
	case roll < r.cfg.FollowerOutageRate+r.cfg.PrimaryOutageRate:
		sh.down = 0
		r.res.PrimaryOutages++
	default:
		return nil
	}
	sh.downUntil = i + 1 + r.topo.Intn(8)
	r.tr.addf("op=%d %s member=%d down until=%d", i, sh.name, sh.down, sh.downUntil)
	return nil
}

// restart drops a seeded shard's primary the way a power loss would and
// re-opens it from its WAL directory. The fleet, its blobs and the
// virtual clock survive (providers are remote machines); everything the
// primary held in memory must come back from the log, and its followers
// follow the recovered primary from where they were.
func (r *runner) restart(i int) *Violation {
	sh := r.shards[r.topo.Intn(len(r.shards))]
	if sh.down >= 0 {
		if v := r.heal(i, sh); v != nil {
			return v
		}
	}
	sh.inj.suspend()
	defer sh.inj.resume()
	r.tr.addf("op=%d %s crash-restart", i, sh.name)
	if err := sh.members[0].Crash(); err != nil {
		return r.violation(i, "recovery", fmt.Sprintf("Crash: %v", err))
	}
	d, err := sh.rebuild()
	if err != nil {
		return r.violation(i, "recovery", fmt.Sprintf("re-open after crash: %v", err))
	}
	sh.members[0] = d
	r.res.Restarts++
	st := d.Metrics().WAL
	r.tr.addf("op=%d recovered snapshot=%v replayed=%d torn=%v orphans=%d",
		i, st.RecoveredSnapshot, st.Replayed, st.TailTruncated, st.RecoveryOrphans)
	return r.sync(i, sh)
}

// errClass collapses an error to a stable label so traces hash
// identically across runs without depending on full error strings.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrUnavailable):
		return "unavailable"
	case errors.Is(err, core.ErrPlacement):
		return "placement"
	case errors.Is(err, core.ErrCircuitOpen):
		return "circuit"
	case errors.Is(err, core.ErrConflict):
		return "conflict"
	case errors.Is(err, core.ErrExists):
		return "exists"
	case errors.Is(err, core.ErrNoSuchFile):
		return "nosuchfile"
	case errors.Is(err, core.ErrNoSuchChunk):
		return "nosuchchunk"
	case errors.Is(err, core.ErrRange):
		return "range"
	case errors.Is(err, provider.ErrOutage):
		return "outage"
	case errors.Is(err, provider.ErrInjected):
		return "transient"
	case errors.Is(err, provider.ErrNotFound):
		return "notfound"
	default:
		return "err"
	}
}

// live returns every shard's non-limbo files, shard by shard.
func (r *runner) live() []*modelFile {
	var out []*modelFile
	for _, sh := range r.shards {
		out = append(out, sh.m.live()...)
	}
	return out
}

// step executes one randomized workload operation, routed to the owning
// shard. A non-nil return is an invariant violation observed mid-window
// (a read served wrong bytes — reads may fail under faults, but must
// never lie).
func (r *runner) step(i int) *Violation {
	live := r.live()
	k := r.rng.Intn(100)
	if len(live) == 0 {
		k = 0 // nothing to read, mutate or remove yet
	}
	switch {
	case k < 24:
		return r.opUpload(i)
	case k < 44:
		return r.opGetFile(i, live)
	case k < 58:
		return r.opGetRange(i, live)
	case k < 64:
		return r.opGetChunk(i, live)
	case k < 80:
		return r.opUpdate(i, live)
	case k < 90:
		return r.opRemove(i, live)
	case k < 94:
		return r.opScrub(i)
	default:
		return r.opDecommission(i)
	}
}

func (r *runner) opUpload(i int) *Violation {
	client := r.clients[r.rng.Intn(len(r.clients))]
	name := fmt.Sprintf("f%05d", r.nameSeq)
	r.nameSeq++
	pl := privacy.Level(r.rng.Intn(int(privacy.MaxLevel) + 1))
	data := make([]byte, r.rng.Intn(r.cfg.MaxFileBytes+1))
	r.rng.Read(data)
	opts := core.UploadOptions{}
	if r.rng.Intn(2) == 0 {
		opts.Assurance = raid.RAID6
	} else {
		opts.Assurance = raid.RAID5
	}
	if r.rng.Float64() < 0.15 {
		opts.NoParity = true
	}
	if r.rng.Float64() < 0.35 {
		opts.MisleadFraction = 0.1 + 0.2*r.rng.Float64()
	}
	if r.rng.Float64() < 0.30 {
		opts.Replicas = 1
	}
	r.res.UploadsAttempted++
	// Half the uploads take the streaming path (UploadStream over an
	// io.Reader, window 1), so every fault schedule also exercises the
	// windowed plan→ship→commit pipeline and its rollback.
	verb := "upload"
	if r.rng.Intn(2) == 0 {
		verb = "ustream"
		r.res.StreamUploads++
	}
	sh := r.owner(client, name)
	var fi core.FileInfo
	v, err := r.write(i, sh, func(d *core.Distributor) (err error) {
		if verb == "ustream" {
			fi, err = d.UploadStream(client, password, name, bytes.NewReader(data), pl, opts)
		} else {
			fi, err = d.Upload(client, password, name, data, pl, opts)
		}
		return err
	})
	r.tr.addf("op=%d %s c=%s f=%s pl=%d size=%d raid=%v np=%v ml=%.2f rep=%d -> %s",
		i, verb, client, name, pl, len(data), opts.Assurance, opts.NoParity, opts.MisleadFraction, opts.Replicas, errClass(err))
	if err == nil {
		r.res.UploadsOK++
		sh.m.addFile(client, name, data, pl, fi.Raid)
	}
	return v
}

func (r *runner) pick(live []*modelFile) *modelFile { return live[r.rng.Intn(len(live))] }

// checkRead verifies a successful read against the model: under any
// fault schedule a read may fail, but it must never return wrong bytes.
func (r *runner) checkRead(i int, f *modelFile, what string, got, want []byte, err error) *Violation {
	r.res.ReadsAttempted++
	if err != nil {
		return nil
	}
	r.res.ReadsOK++
	if !bytes.Equal(got, want) {
		return r.violation(i, "read-integrity",
			fmt.Sprintf("%s of %s/%s returned %d bytes that differ from the model (%d bytes expected)",
				what, f.client, f.name, len(got), len(want)))
	}
	return nil
}

func (r *runner) opGetFile(i int, live []*modelFile) *Violation {
	f := r.pick(live)
	d := r.owner(f.client, f.name).reader()
	// Half the whole-file reads stream through GetFileTo (window 1), so
	// the ordered-delivery path faces the same fault schedules as the
	// buffered one. A failed streamed read may leave a partial prefix in
	// the buffer; only a *successful* read must match the model.
	if r.rng.Intn(2) == 0 {
		r.res.StreamReads++
		var buf bytes.Buffer
		n, err := d.GetFileTo(&buf, f.client, password, f.name)
		r.tr.addf("op=%d getfileto c=%s f=%s n=%d -> %s", i, f.client, f.name, n, errClass(err))
		got := buf.Bytes()
		if err == nil && int64(len(got)) != n {
			return r.violation(i, "read-integrity",
				fmt.Sprintf("GetFileTo of %s/%s reported %d bytes but wrote %d", f.client, f.name, n, len(got)))
		}
		return r.checkRead(i, f, "GetFileTo", got, f.bytes(), err)
	}
	got, err := d.GetFile(f.client, password, f.name)
	r.tr.addf("op=%d getfile c=%s f=%s -> %s", i, f.client, f.name, errClass(err))
	return r.checkRead(i, f, "GetFile", got, f.bytes(), err)
}

func (r *runner) opGetRange(i int, live []*modelFile) *Violation {
	f := r.pick(live)
	want := f.bytes()
	if len(want) == 0 {
		return r.opGetFile(i, live)
	}
	off := r.rng.Intn(len(want))
	max := len(want) - off
	if max > 4096 {
		max = 4096
	}
	n := 1 + r.rng.Intn(max)
	got, err := r.owner(f.client, f.name).reader().GetRange(f.client, password, f.name, off, n)
	r.tr.addf("op=%d getrange c=%s f=%s off=%d n=%d -> %s", i, f.client, f.name, off, n, errClass(err))
	return r.checkRead(i, f, "GetRange", got, want[off:off+n], err)
}

func (r *runner) opGetChunk(i int, live []*modelFile) *Violation {
	f := r.pick(live)
	serial := r.rng.Intn(len(f.chunks))
	got, err := r.owner(f.client, f.name).reader().GetChunk(f.client, password, f.name, serial)
	r.tr.addf("op=%d getchunk c=%s f=%s serial=%d -> %s", i, f.client, f.name, serial, errClass(err))
	return r.checkRead(i, f, "GetChunk", got, f.chunks[serial], err)
}

func (r *runner) opUpdate(i int, live []*modelFile) *Violation {
	f := r.pick(live)
	sh := r.owner(f.client, f.name)
	serial := r.rng.Intn(len(f.chunks))
	size, err := sh.m.policy.Size(f.pl)
	if err != nil || size <= 0 {
		size = 8 << 10
	}
	data := make([]byte, 1+r.rng.Intn(size))
	r.rng.Read(data)
	opts := core.UploadOptions{}
	if r.rng.Float64() < 0.25 {
		opts.MisleadFraction = 0.1 + 0.1*r.rng.Float64()
	}
	v, err := r.write(i, sh, func(d *core.Distributor) error {
		return d.UpdateChunk(f.client, password, f.name, serial, data, opts)
	})
	r.tr.addf("op=%d update c=%s f=%s serial=%d size=%d -> %s", i, f.client, f.name, serial, len(data), errClass(err))
	r.res.Updates++
	if err == nil {
		f.chunks[serial] = data
	}
	return v
}

func (r *runner) opRemove(i int, live []*modelFile) *Violation {
	f := r.pick(live)
	sh := r.owner(f.client, f.name)
	v, err := r.write(i, sh, func(d *core.Distributor) error {
		return d.RemoveFile(f.client, password, f.name)
	})
	r.tr.addf("op=%d remove c=%s f=%s -> %s", i, f.client, f.name, errClass(err))
	r.res.Removes++
	if err == nil {
		sh.m.drop(f.client, f.name)
	} else {
		// A failed remove may have deleted some blobs or even committed
		// the table removal; the checkpoint re-drives it to convergence.
		f.limbo = true
	}
	return v
}

func (r *runner) opScrub(i int) *Violation {
	var rep core.ScrubReport
	v, err := r.write(i, r.shards[r.topo.Intn(len(r.shards))], func(d *core.Distributor) (err error) {
		rep, err = d.Scrub()
		return err
	})
	r.tr.addf("op=%d scrub checked=%d repaired=%d unrepairable=%d parity=%d/%d -> %s",
		i, rep.ChunksChecked, rep.Repaired, rep.Unrepairable, rep.ParityRepaired, rep.ParityChecked, errClass(err))
	r.res.Scrubs++
	return v
}

func (r *runner) opDecommission(i int) *Violation {
	p := r.rng.Intn(r.cfg.Providers)
	v, err := r.write(i, r.shards[r.topo.Intn(len(r.shards))], func(d *core.Distributor) error {
		_, err := d.Decommission(p)
		return err
	})
	r.tr.addf("op=%d decommission p=%d -> %s", i, p, errClass(err))
	r.res.Decommissions++
	return v
}

func (r *runner) violation(op int, invariant, detail string) *Violation {
	v := &Violation{
		Seed: r.cfg.Seed, Ops: r.cfg.Ops, Op: op,
		Invariant: invariant, Detail: detail,
		Repro: r.cfg.repro(),
		Trace: r.tr.tail(25),
	}
	r.tr.addf("VIOLATION op=%d %s: %s", op, invariant, detail)
	return v
}
