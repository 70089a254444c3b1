package simcheck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/raid"
	"repro/internal/wal"
)

// Config parameterizes one simulation run. The run is a pure function
// of this struct: same config, same trace hash.
type Config struct {
	Seed int64
	// Ops is the number of workload operations (default 300).
	Ops int
	// Providers is the fleet size, >= 8 (default 12). The first
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

	// RotPerCheckpoint injects that many at-rest bit-rot corruptions
	// after each checkpoint, budgeted to one per stripe so every rot
	// stays repairable (the next scrub must heal all of them).
	RotPerCheckpoint int

	// RestartEvery crashes the distributor (power-loss semantics: no
	// drain, no final checkpoint) every that many ops and re-opens it
	// from its WAL directory, then runs a full oracle checkpoint against
	// the recovered state. 0 disables restarts. A non-zero value makes
	// the run durable: it opens a WAL in a per-run temp directory at
	// SyncAlways (grouped sync flushes on a wall-clock timer, which
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

	Faults  FaultCounts
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
	Repro     string   // test to replay this schedule under (default TestSimCheck$)
	Trace     []string // tail of the op/fault trace
}

func (v *Violation) Error() string {
	run := v.Repro
	if run == "" {
		run = "TestSimCheck$"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "simcheck: invariant %q violated at op %d: %s\n", v.Invariant, v.Op, v.Detail)
	fmt.Fprintf(&b, "repro: go test ./internal/simcheck -run '%s' -seed=%d -ops=%d", run, v.Seed, v.Ops)
	if len(v.Trace) > 0 {
		fmt.Fprintf(&b, "\ntrace tail:\n  %s", strings.Join(v.Trace, "\n  "))
	}
	return b.String()
}

// runner holds one run's moving parts.
type runner struct {
	cfg     Config
	d       *core.Distributor
	rebuild func() (*core.Distributor, error) // re-open from the WAL dir
	fleet   *provider.Fleet
	hooked  []*provider.Hooked
	provPL  []privacy.Level
	inj     *injector
	m       *model
	tr      *trace
	rng     *rand.Rand // workload stream, independent of the injector's
	tick    func(time.Duration)
	res     Result

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
	tr.addf("simcheck seed=%d ops=%d providers=%d cache=%d dark=%v bug=%v restart=%d lostcommit=%v",
		cfg.Seed, cfg.Ops, cfg.Providers, cfg.CacheBytes, cfg.DarkProvider, cfg.BugDropDeletes,
		cfg.RestartEvery, cfg.BugLoseLastCommit)

	fleet, err := provider.NewFleet()
	if err != nil {
		return Result{}, err
	}
	hooked := make([]*provider.Hooked, cfg.Providers)
	provPL := make([]privacy.Level, cfg.Providers)
	for i := 0; i < cfg.Providers; i++ {
		pl := privacy.High
		switch cfg.Providers - 1 - i {
		case 0:
			pl = privacy.Public
		case 1:
			pl = privacy.Low
		case 2, 3:
			pl = privacy.Moderate
		}
		provPL[i] = pl
		mem, err := provider.New(provider.Info{Name: fmt.Sprintf("sp%02d", i), PL: pl, CL: 1}, provider.Options{})
		if err != nil {
			return Result{}, err
		}
		hooked[i] = provider.NewHooked(mem)
		if err := fleet.Add(hooked[i]); err != nil {
			return Result{}, err
		}
	}

	// The breaker clock is virtual: one tick per op plus injected delay
	// jitter. Cooldowns therefore elapse in op counts, deterministically.
	var vnow atomic.Int64
	tick := func(delta time.Duration) { vnow.Add(int64(delta)) }
	inj := newInjector(cfg, cfg.Seed^0x5eedfa17, tr, tick, hooked)

	// A crash-restart run is durable: the WAL lives in a per-run temp
	// directory and every restart re-opens it against the same fleet and
	// the same virtual clock.
	walDir := ""
	if cfg.RestartEvery > 0 || cfg.BugLoseLastCommit {
		dir, err := os.MkdirTemp("", "simcheck-wal-")
		if err != nil {
			return Result{}, err
		}
		defer os.RemoveAll(dir)
		walDir = dir
	}
	build := func() (*core.Distributor, error) {
		return core.New(core.Config{
			Fleet:        fleet,
			StripeWidth:  3,
			Parallelism:  1, // sequential provider I/O, an upload's puts in stripe order: determinism anchor
			StreamWindow: 1, // lockstep uploads (a stripe is placed once the last has shipped): same anchor
			Secret:       []byte("simcheck-prf-secret"),
			MisleadSeed:  cfg.Seed,
			CacheBytes:   cfg.CacheBytes,
			Health: health.Config{
				Cooldown: 8 * time.Millisecond,
				Clock:    func() time.Time { return time.Unix(0, vnow.Load()) },
			},
			WALDir:         walDir,
			WALSync:        wal.SyncAlways, // grouped flushes on wall-clock: nondeterministic
			SnapshotEvery:  64,
			WALBugSkipSync: cfg.BugLoseLastCommit,
		})
	}
	d, err := build()
	if err != nil {
		return Result{}, err
	}
	r := &runner{
		cfg: cfg, d: d, rebuild: build, fleet: fleet, hooked: hooked, provPL: provPL,
		inj: inj, m: newModel(), tr: tr,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		tick: tick,
		res:  Result{Seed: cfg.Seed, Ops: cfg.Ops},
	}
	r.clients = []string{"alice", "bob"}
	for _, c := range r.clients {
		if err := d.RegisterClient(c); err != nil {
			return r.res, err
		}
		if err := d.AddPassword(c, password, privacy.High); err != nil {
			return r.res, err
		}
	}

	for i := 0; i < cfg.Ops; i++ {
		if cfg.RestartEvery > 0 && i > 0 && i%cfg.RestartEvery == 0 {
			if v := r.restart(i); v != nil {
				r.finish()
				return r.res, v
			}
			// Every invariant must hold against the freshly recovered
			// state before the workload resumes.
			if v := r.checkpoint(i); v != nil {
				r.finish()
				return r.res, v
			}
		}
		inj.atOp(i)
		if v := r.step(i); v != nil {
			r.finish()
			return r.res, v
		}
		if (i+1)%cfg.CheckEvery == 0 {
			if v := r.checkpoint(i); v != nil {
				r.finish()
				return r.res, v
			}
		}
	}
	if cfg.Ops%cfg.CheckEvery != 0 {
		if v := r.checkpoint(cfg.Ops - 1); v != nil {
			r.finish()
			return r.res, v
		}
	}
	r.finish()
	return r.res, nil
}

// restart drops the live distributor the way a power loss would and
// re-opens it from the WAL directory. The fleet, its blobs and the
// virtual clock survive (providers are remote machines); everything the
// distributor held in memory must come back from the log.
func (r *runner) restart(i int) *Violation {
	r.inj.suspend()
	defer r.inj.resume()
	r.tr.addf("op=%d crash-restart", i)
	if err := r.d.Crash(); err != nil {
		return r.violation(i, "recovery", fmt.Sprintf("Crash: %v", err))
	}
	d2, err := r.rebuild()
	if err != nil {
		return r.violation(i, "recovery", fmt.Sprintf("re-open after crash: %v", err))
	}
	r.d = d2
	r.res.Restarts++
	st := d2.Metrics().WAL
	r.tr.addf("op=%d recovered snapshot=%v replayed=%d torn=%v orphans=%d",
		i, st.RecoveredSnapshot, st.Replayed, st.TailTruncated, st.RecoveryOrphans)
	return nil
}

func (r *runner) finish() {
	r.res.Faults = r.inj.faultCounts()
	r.res.Metrics = r.d.Metrics()
	r.res.TraceHash = r.tr.hashHex()
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

// step executes one randomized workload operation. A non-nil return is
// an invariant violation observed mid-window (a read served wrong
// bytes — reads may fail under faults, but must never lie).
func (r *runner) step(i int) *Violation {
	live := r.m.live()
	k := r.rng.Intn(100)
	if len(live) == 0 {
		k = 0 // nothing to read, mutate or remove yet
	}
	switch {
	case k < 24:
		r.opUpload(i)
		return nil
	case k < 44:
		return r.opGetFile(i, live)
	case k < 58:
		return r.opGetRange(i, live)
	case k < 64:
		return r.opGetChunk(i, live)
	case k < 80:
		r.opUpdate(i, live)
		return nil
	case k < 90:
		r.opRemove(i, live)
		return nil
	case k < 94:
		r.opScrub(i)
		return nil
	default:
		r.opDecommission(i)
		return nil
	}
}

func (r *runner) opUpload(i int) {
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
	var (
		fi   core.FileInfo
		err  error
		verb = "upload"
	)
	if r.rng.Intn(2) == 0 {
		verb = "ustream"
		r.res.StreamUploads++
		fi, err = r.d.UploadStream(client, password, name, bytes.NewReader(data), pl, opts)
	} else {
		fi, err = r.d.Upload(client, password, name, data, pl, opts)
	}
	r.tr.addf("op=%d %s c=%s f=%s pl=%d size=%d raid=%v np=%v ml=%.2f rep=%d -> %s",
		i, verb, client, name, pl, len(data), opts.Assurance, opts.NoParity, opts.MisleadFraction, opts.Replicas, errClass(err))
	if err == nil {
		r.res.UploadsOK++
		r.m.addFile(client, name, data, pl, fi.Raid)
	}
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
	// Half the whole-file reads stream through GetFileTo (window 1), so
	// the ordered-delivery path faces the same fault schedules as the
	// buffered one. A failed streamed read may leave a partial prefix in
	// the buffer; only a *successful* read must match the model.
	if r.rng.Intn(2) == 0 {
		r.res.StreamReads++
		var buf bytes.Buffer
		n, err := r.d.GetFileTo(&buf, f.client, password, f.name)
		r.tr.addf("op=%d getfileto c=%s f=%s n=%d -> %s", i, f.client, f.name, n, errClass(err))
		got := buf.Bytes()
		if err == nil && int64(len(got)) != n {
			return r.violation(i, "read-integrity",
				fmt.Sprintf("GetFileTo of %s/%s reported %d bytes but wrote %d", f.client, f.name, n, len(got)))
		}
		return r.checkRead(i, f, "GetFileTo", got, f.bytes(), err)
	}
	got, err := r.d.GetFile(f.client, password, f.name)
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
	got, err := r.d.GetRange(f.client, password, f.name, off, n)
	r.tr.addf("op=%d getrange c=%s f=%s off=%d n=%d -> %s", i, f.client, f.name, off, n, errClass(err))
	return r.checkRead(i, f, "GetRange", got, want[off:off+n], err)
}

func (r *runner) opGetChunk(i int, live []*modelFile) *Violation {
	f := r.pick(live)
	serial := r.rng.Intn(len(f.chunks))
	got, err := r.d.GetChunk(f.client, password, f.name, serial)
	r.tr.addf("op=%d getchunk c=%s f=%s serial=%d -> %s", i, f.client, f.name, serial, errClass(err))
	return r.checkRead(i, f, "GetChunk", got, f.chunks[serial], err)
}

func (r *runner) opUpdate(i int, live []*modelFile) {
	f := r.pick(live)
	serial := r.rng.Intn(len(f.chunks))
	size, err := r.m.policy.Size(f.pl)
	if err != nil || size <= 0 {
		size = 8 << 10
	}
	data := make([]byte, 1+r.rng.Intn(size))
	r.rng.Read(data)
	opts := core.UploadOptions{}
	if r.rng.Float64() < 0.25 {
		opts.MisleadFraction = 0.1 + 0.1*r.rng.Float64()
	}
	err = r.d.UpdateChunk(f.client, password, f.name, serial, data, opts)
	r.tr.addf("op=%d update c=%s f=%s serial=%d size=%d -> %s", i, f.client, f.name, serial, len(data), errClass(err))
	r.res.Updates++
	if err == nil {
		f.chunks[serial] = data
	}
}

func (r *runner) opRemove(i int, live []*modelFile) {
	f := r.pick(live)
	err := r.d.RemoveFile(f.client, password, f.name)
	r.tr.addf("op=%d remove c=%s f=%s -> %s", i, f.client, f.name, errClass(err))
	r.res.Removes++
	if err == nil {
		r.m.drop(f.client, f.name)
	} else {
		// A failed remove may have deleted some blobs or even committed
		// the table removal; the checkpoint re-drives it to convergence.
		f.limbo = true
	}
}

func (r *runner) opScrub(i int) {
	rep, err := r.d.Scrub()
	r.tr.addf("op=%d scrub checked=%d repaired=%d unrepairable=%d parity=%d/%d -> %s",
		i, rep.ChunksChecked, rep.Repaired, rep.Unrepairable, rep.ParityRepaired, rep.ParityChecked, errClass(err))
	r.res.Scrubs++
}

func (r *runner) opDecommission(i int) {
	p := r.rng.Intn(r.cfg.Providers)
	_, err := r.d.Decommission(p)
	r.tr.addf("op=%d decommission p=%d -> %s", i, p, errClass(err))
	r.res.Decommissions++
}

func (r *runner) violation(op int, invariant, detail string) *Violation {
	v := &Violation{
		Seed: r.cfg.Seed, Ops: r.cfg.Ops, Op: op,
		Invariant: invariant, Detail: detail,
		Trace: r.tr.tail(25),
	}
	if r.cfg.RestartEvery > 0 || r.cfg.BugLoseLastCommit {
		v.Repro = "TestSimCheckCrashRestart"
	}
	r.tr.addf("VIOLATION op=%d %s: %s", op, invariant, detail)
	return v
}
