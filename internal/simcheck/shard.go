package simcheck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/health"
	"repro/internal/privacy"
	"repro/internal/provider"
	"repro/internal/wal"
)

// ShardConfig parameterizes one multi-distributor simulation: a
// consistent-hash namespace over several shards, each shard a durable
// primary and followers of its WAL over its own provider fleet.
// The run is a pure function of this struct — same config, same trace
// hash — like the single-distributor harness.
type ShardConfig struct {
	Seed int64
	// Ops is the number of workload operations (default 240).
	Ops int
	// Shards is the number of namespace shards (default 3).
	Shards int
	// ProvidersPerShard sizes each shard's private fleet (default 6).
	ProvidersPerShard int
	// Followers is the number of replication followers per shard
	// (default 1).
	Followers int
	// CheckEvery is the op interval between quiescent checkpoints
	// (default 30). A final checkpoint always runs after the last op.
	CheckEvery int
	// MaxFileBytes caps generated file sizes (default 8 KiB).
	MaxFileBytes int

	// FollowerOutageRate is the per-op chance that one shard's follower
	// becomes unreachable (an inter-distributor partition) for
	// WindowOps operations; replication lag accrues, then the heal must
	// catch it up incrementally.
	FollowerOutageRate float64
	// PrimaryOutageRate is the per-op chance that one shard's primary
	// goes down for WindowOps operations: mutations to that shard fail
	// as unavailable while reads are served byte-exact off a follower.
	PrimaryOutageRate float64
	// CrashRate is the per-op chance that one shard's primary
	// crash-restarts (power-loss semantics, recovery from its WAL) and
	// its followers follow the recovered primary.
	CrashRate float64
	// WindowOps is the length of an outage window in ops (default 8).
	WindowOps int
}

// DefaultShardConfig returns the standard sweep configuration for a
// seed: fault rates high enough that every class of window fires in a
// few hundred ops.
func DefaultShardConfig(seed int64) ShardConfig {
	return ShardConfig{
		Seed:               seed,
		Ops:                240,
		Shards:             3 + int(seed%2), // sweep 3- and 4-shard topologies
		ProvidersPerShard:  6,
		Followers:          1,
		CheckEvery:         30,
		MaxFileBytes:       8 << 10,
		FollowerOutageRate: 0.04,
		PrimaryOutageRate:  0.02,
		CrashRate:          0.015,
		WindowOps:          8,
	}
}

// ShardResult summarizes a completed sharded run.
type ShardResult struct {
	Seed        int64
	Ops         int
	Shards      int
	TraceHash   string
	Checkpoints int

	Uploads         int
	UploadsOK       int
	Reads           int
	ReadsOK         int
	Updates         int
	Removes         int
	Unavailable     int // mutations rejected while a primary was down
	FollowerOutages int
	PrimaryOutages  int
	Restarts        int

	RecordsReplicated uint64 // records followers applied, summed across shards
	SnapshotSyncs     uint64 // follows that fell back to a full snapshot
}

// shard is one namespace partition's moving parts.
type shard struct {
	name      string
	members   []*core.Distributor // [0] primary, rest followers
	down      []bool              // members an open outage window holds down
	walDir    string
	rebuild   func() (*core.Distributor, error)
	lastGen   uint64 // primary generation at the previous checkpoint
	downUntil int    // op index an open outage window ends at (0 = none)
	downIdx   int    // which member the open window holds down
}

// errPrimaryDown is what a mutation routed to a shard whose primary is
// down answers: the followers serve reads, and refuse writes.
var errPrimaryDown = fmt.Errorf("%w: primary distributor down", core.ErrUnavailable)

// shardRunner drives one sharded simulation.
type shardRunner struct {
	cfg    ShardConfig
	ring   *dht.BalancedRing
	shards []*shard
	m      *model
	tr     *trace
	rng    *rand.Rand
	res    ShardResult

	nameSeq int
	clients []string
}

// RunSharded executes one multi-distributor simulation. On an invariant
// violation the error is a *Violation carrying a seeded repro line.
func RunSharded(cfg ShardConfig) (ShardResult, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 240
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.ProvidersPerShard <= 0 {
		cfg.ProvidersPerShard = 6
	}
	if cfg.Followers <= 0 {
		cfg.Followers = 1
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 30
	}
	if cfg.MaxFileBytes <= 0 {
		cfg.MaxFileBytes = 8 << 10
	}
	if cfg.WindowOps <= 0 {
		cfg.WindowOps = 8
	}

	tr := newTrace()
	tr.addf("simcheck-shard seed=%d ops=%d shards=%d provs=%d followers=%d",
		cfg.Seed, cfg.Ops, cfg.Shards, cfg.ProvidersPerShard, cfg.Followers)

	// The breaker clock is virtual and shared, as in the single-shard
	// harness; with no provider-level faults it never trips a breaker,
	// but keeping wall time out of the loop is what makes the trace hash
	// reproducible.
	var vnow atomic.Int64

	r := &shardRunner{
		cfg: cfg, m: newModel(), tr: tr,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		res:     ShardResult{Seed: cfg.Seed, Ops: cfg.Ops, Shards: cfg.Shards},
		clients: []string{"alice", "bob"},
	}

	names := make([]string, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		names[s] = fmt.Sprintf("shard-%02d", s)
	}
	ring, err := dht.NewBalancedRing(dht.DefaultVNodes, names...)
	if err != nil {
		return r.res, err
	}
	r.ring = ring

	for s := 0; s < cfg.Shards; s++ {
		fleet, err := provider.NewFleet()
		if err != nil {
			return r.res, err
		}
		for i := 0; i < cfg.ProvidersPerShard; i++ {
			mem, err := provider.New(provider.Info{
				Name: fmt.Sprintf("s%02dp%02d", s, i), PL: privacy.High, CL: 1,
			}, provider.Options{})
			if err != nil {
				return r.res, err
			}
			if err := fleet.Add(mem); err != nil {
				return r.res, err
			}
		}
		walDir, err := os.MkdirTemp("", "simcheck-shard-wal-")
		if err != nil {
			return r.res, err
		}
		defer os.RemoveAll(walDir)

		buildMember := func(secret byte, dir string) (*core.Distributor, error) {
			return core.New(core.Config{
				Fleet:        fleet,
				StripeWidth:  3,
				Parallelism:  1, // determinism anchors, as in Run
				StreamWindow: 1,
				Secret:       []byte{secret},
				MisleadSeed:  cfg.Seed,
				Health: health.Config{
					Cooldown: 8 * time.Millisecond,
					Clock:    func() time.Time { return time.Unix(0, vnow.Load()) },
				},
				WALDir:        dir,
				WALSync:       wal.SyncAlways,
				SnapshotEvery: 64,
			})
		}
		members := make([]*core.Distributor, 1+cfg.Followers)
		// Only the primary is durable; followers hold replicated state in
		// memory and re-seed from a snapshot if they ever fall off the
		// primary's log — exactly the production follower contract.
		members[0], err = buildMember(byte(s+1), walDir)
		if err != nil {
			return r.res, err
		}
		for f := 1; f < len(members); f++ {
			members[f], err = buildMember(byte(s+1)<<4|byte(f), "")
			if err != nil {
				return r.res, err
			}
		}
		sh := &shard{name: names[s], members: members, down: make([]bool, len(members)), walDir: walDir}
		shardIdx := s
		sh.rebuild = func() (*core.Distributor, error) {
			return buildMember(byte(shardIdx+1), walDir)
		}
		r.shards = append(r.shards, sh)

		for _, c := range r.clients {
			if err := members[0].RegisterClient(c); err != nil {
				return r.res, err
			}
			if err := members[0].AddPassword(c, password, privacy.High); err != nil {
				return r.res, err
			}
		}
		if err := r.follow(sh); err != nil {
			return r.res, err
		}
	}

	for i := 0; i < cfg.Ops; i++ {
		vnow.Add(int64(time.Millisecond))
		if v := r.windows(i); v != nil {
			r.finish()
			return r.res, v
		}
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

func (r *shardRunner) finish() {
	r.res.TraceHash = r.tr.hashHex()
}

// follow brings every up follower of sh level with its primary and
// tallies what that took.
func (r *shardRunner) follow(sh *shard) error {
	for f := 1; f < len(sh.members); f++ {
		if sh.down[f] {
			continue // partitioned: it catches up when its window heals
		}
		rep, err := sh.members[f].Follow(sh.members[0])
		if err != nil {
			return fmt.Errorf("follower %d: %w", f, err)
		}
		r.res.RecordsReplicated += uint64(rep.Records)
		if rep.Resynced {
			r.res.SnapshotSyncs++
		}
	}
	return nil
}

// heal closes the outage window on member i of sh. A healed follower
// catches up before it serves again, so it never answers from stale
// tables.
func (r *shardRunner) heal(sh *shard, i int) error {
	sh.down[i] = false
	return r.follow(sh)
}

// mutate runs a write on sh's primary and brings the followers level. A
// down primary answers errPrimaryDown without running it.
func (r *shardRunner) mutate(sh *shard, write func(*core.Distributor) (core.FileInfo, error)) (core.FileInfo, error) {
	if sh.down[0] {
		return core.FileInfo{}, errPrimaryDown
	}
	fi, err := write(sh.members[0])
	if err != nil {
		return fi, err
	}
	return fi, r.follow(sh)
}

// firstUp returns the first member of sh not held down, primary first.
func firstUp(sh *shard) *core.Distributor {
	for i, d := range sh.members {
		if !sh.down[i] {
			return d
		}
	}
	return nil
}

// owner routes a file key to its shard — the same hash the transport
// router uses, so the harness exercises the production partition.
func (r *shardRunner) owner(client, name string) (int, *shard) {
	node, err := r.ring.Successor(dht.FileKey(client, name))
	if err != nil {
		panic("simcheck: empty ring: " + err.Error())
	}
	for s, sh := range r.shards {
		if sh.name == node {
			return s, sh
		}
	}
	panic("simcheck: ring returned unknown shard " + node)
}

// windows closes expired outage windows and rolls for new faults.
// Heals are synchronous: a healing follower catches up before it may
// serve reads again, so any error here is a violation.
func (r *shardRunner) windows(i int) *Violation {
	for s, sh := range r.shards {
		if sh.downUntil > 0 && i >= sh.downUntil {
			if err := r.heal(sh, sh.downIdx); err != nil {
				return r.violation(i, "heal-catchup",
					fmt.Sprintf("shard %d member %d heal: %v", s, sh.downIdx, err))
			}
			r.tr.addf("op=%d shard=%d heal member=%d", i, s, sh.downIdx)
			sh.downUntil = 0
		}
	}
	// At most one new fault per op keeps windows from piling onto one
	// shard; the roll order is fixed so the schedule stays seeded.
	roll := r.rng.Float64()
	s := r.rng.Intn(len(r.shards))
	sh := r.shards[s]
	switch {
	case roll < r.cfg.FollowerOutageRate:
		if sh.downUntil > 0 {
			return nil // window already open on this shard
		}
		f := 1 + r.rng.Intn(len(sh.members)-1)
		sh.down[f] = true
		sh.downUntil, sh.downIdx = i+1+r.rng.Intn(r.cfg.WindowOps), f
		r.res.FollowerOutages++
		r.tr.addf("op=%d shard=%d partition follower=%d until=%d", i, s, f, sh.downUntil)
	case roll < r.cfg.FollowerOutageRate+r.cfg.PrimaryOutageRate:
		if sh.downUntil > 0 {
			return nil
		}
		sh.down[0] = true
		sh.downUntil, sh.downIdx = i+1+r.rng.Intn(r.cfg.WindowOps), 0
		r.res.PrimaryOutages++
		r.tr.addf("op=%d shard=%d primary-down until=%d", i, s, sh.downUntil)
	case roll < r.cfg.FollowerOutageRate+r.cfg.PrimaryOutageRate+r.cfg.CrashRate:
		return r.crashRestart(i, s)
	}
	return nil
}

// crashRestart power-cycles a shard's primary: no drain, recovery from
// the WAL, then the followers follow the recovered primary from where
// they were. Any open window on the shard heals first so the restarted
// shard starts from a known membership state.
func (r *shardRunner) crashRestart(i, s int) *Violation {
	sh := r.shards[s]
	if sh.downUntil > 0 {
		if err := r.heal(sh, sh.downIdx); err != nil {
			return r.violation(i, "heal-catchup",
				fmt.Sprintf("shard %d member %d pre-crash heal: %v", s, sh.downIdx, err))
		}
		sh.downUntil = 0
	}
	genBefore := sh.members[0].Generation()
	if err := sh.members[0].Crash(); err != nil {
		return r.violation(i, "recovery", fmt.Sprintf("shard %d crash: %v", s, err))
	}
	prim, err := sh.rebuild()
	if err != nil {
		return r.violation(i, "recovery", fmt.Sprintf("shard %d re-open after crash: %v", s, err))
	}
	if got := prim.Generation(); got < genBefore {
		return r.violation(i, "generation-monotonic",
			fmt.Sprintf("shard %d recovered at gen %d, below pre-crash gen %d", s, got, genBefore))
	}
	sh.members[0] = prim
	if err := r.follow(sh); err != nil {
		return r.violation(i, "recovery", fmt.Sprintf("shard %d post-crash follow: %v", s, err))
	}
	r.res.Restarts++
	r.tr.addf("op=%d shard=%d crash-restart gen=%d", i, s, prim.Generation())
	return nil
}

// step executes one routed workload operation.
func (r *shardRunner) step(i int) *Violation {
	live := r.m.live()
	k := r.rng.Intn(100)
	if len(live) == 0 {
		k = 0
	}
	switch {
	case k < 30:
		r.opUpload(i)
		return nil
	case k < 70:
		return r.opRead(i, live)
	case k < 85:
		r.opUpdate(i, live)
		return nil
	default:
		r.opRemove(i, live)
		return nil
	}
}

func (r *shardRunner) opUpload(i int) {
	client := r.clients[r.rng.Intn(len(r.clients))]
	name := fmt.Sprintf("g%05d", r.nameSeq)
	r.nameSeq++
	pl := privacy.Level(r.rng.Intn(int(privacy.MaxLevel) + 1))
	data := make([]byte, r.rng.Intn(r.cfg.MaxFileBytes+1))
	r.rng.Read(data)
	opts := core.UploadOptions{}
	if r.rng.Float64() < 0.3 {
		opts.Replicas = 1
	}
	s, sh := r.owner(client, name)
	r.res.Uploads++
	fi, err := r.mutate(sh, func(p *core.Distributor) (core.FileInfo, error) {
		return p.Upload(client, password, name, data, pl, opts)
	})
	r.tr.addf("op=%d upload shard=%d c=%s f=%s pl=%d size=%d -> %s",
		i, s, client, name, pl, len(data), errClass(err))
	if err == nil {
		r.res.UploadsOK++
		r.m.addFile(client, name, data, pl, fi.Raid)
	} else if errors.Is(err, core.ErrUnavailable) {
		r.res.Unavailable++
	}
}

// opRead reads a file through its owning shard's first up member. With
// no provider faults in this harness a read must always succeed — even
// mid-window, when a down primary leaves only followers — and must be
// byte-exact.
func (r *shardRunner) opRead(i int, live []*modelFile) *Violation {
	f := live[r.rng.Intn(len(live))]
	s, sh := r.owner(f.client, f.name)
	got, err := firstUp(sh).GetFile(f.client, password, f.name)
	r.tr.addf("op=%d getfile shard=%d c=%s f=%s -> %s", i, s, f.client, f.name, errClass(err))
	r.res.Reads++
	if err != nil {
		return r.violation(i, "shard-readability",
			fmt.Sprintf("read of %s/%s on shard %d failed: %v", f.client, f.name, s, err))
	}
	r.res.ReadsOK++
	if !bytes.Equal(got, f.bytes()) {
		return r.violation(i, "read-integrity",
			fmt.Sprintf("read of %s/%s on shard %d returned %d bytes differing from the model (%d expected)",
				f.client, f.name, s, len(got), len(f.bytes())))
	}
	return nil
}

// opUpdate mutates one chunk through the owning shard's primary and
// replicates. A down primary makes the mutation unavailable — the
// model stays unchanged, which the next read then verifies.
func (r *shardRunner) opUpdate(i int, live []*modelFile) {
	f := live[r.rng.Intn(len(live))]
	s, sh := r.owner(f.client, f.name)
	serial := r.rng.Intn(len(f.chunks))
	size, err := r.m.policy.Size(f.pl)
	if err != nil || size <= 0 {
		size = 8 << 10
	}
	data := make([]byte, 1+r.rng.Intn(size))
	r.rng.Read(data)
	r.res.Updates++
	if sh.downUntil > 0 && sh.downIdx == 0 {
		r.res.Unavailable++
		r.tr.addf("op=%d update shard=%d c=%s f=%s -> unavailable", i, s, f.client, f.name)
		return
	}
	_, err = r.mutate(sh, func(p *core.Distributor) (core.FileInfo, error) {
		return core.FileInfo{}, p.UpdateChunk(f.client, password, f.name, serial, data, core.UploadOptions{})
	})
	r.tr.addf("op=%d update shard=%d c=%s f=%s serial=%d size=%d -> %s",
		i, s, f.client, f.name, serial, len(data), errClass(err))
	if err == nil {
		f.chunks[serial] = data
	}
}

// opRemove deletes a file through the owning shard's primary.
func (r *shardRunner) opRemove(i int, live []*modelFile) {
	f := live[r.rng.Intn(len(live))]
	s, sh := r.owner(f.client, f.name)
	r.res.Removes++
	if sh.downUntil > 0 && sh.downIdx == 0 {
		r.res.Unavailable++
		r.tr.addf("op=%d remove shard=%d c=%s f=%s -> unavailable", i, s, f.client, f.name)
		return
	}
	_, err := r.mutate(sh, func(p *core.Distributor) (core.FileInfo, error) {
		return core.FileInfo{}, p.RemoveFile(f.client, password, f.name)
	})
	r.tr.addf("op=%d remove shard=%d c=%s f=%s -> %s", i, s, f.client, f.name, errClass(err))
	if err == nil {
		r.m.drop(f.client, f.name)
	}
}

// checkpoint quiesces every fault window, brings every follower level,
// and checks the per-shard oracle invariants: every follower at the
// primary's log end with an equal generation, follower state identical
// to the primary, byte-exact reads through the shard AND directly off a
// follower, generation monotonicity, and namespace isolation (a file
// lives on its owning shard only).
func (r *shardRunner) checkpoint(i int) *Violation {
	r.res.Checkpoints++
	r.tr.addf("op=%d checkpoint", i)
	for s, sh := range r.shards {
		if sh.downUntil > 0 {
			if err := r.heal(sh, sh.downIdx); err != nil {
				return r.violation(i, "heal-catchup",
					fmt.Sprintf("shard %d member %d checkpoint heal: %v", s, sh.downIdx, err))
			}
			sh.downUntil = 0
		}
		if err := r.follow(sh); err != nil {
			return r.violation(i, "replication-sync", fmt.Sprintf("shard %d: %v", s, err))
		}
		primGen := sh.members[0].Generation()
		if primGen < sh.lastGen {
			return r.violation(i, "generation-monotonic",
				fmt.Sprintf("shard %d primary gen %d below last checkpoint's %d", s, primGen, sh.lastGen))
		}
		sh.lastGen = primGen
		next := sh.members[0].WALHealth().NextLSN
		for f := 1; f < len(sh.members); f++ {
			rep, err := sh.members[f].Follow(sh.members[0])
			if err != nil || rep.Records != 0 || rep.Resynced || rep.LSN != next || sh.members[f].Generation() != primGen {
				return r.violation(i, "replication-lag",
					fmt.Sprintf("shard %d member %d not converged (primary gen %d, log end %d): gen %d, %+v, %v",
						s, f, primGen, next, sh.members[f].Generation(), rep, err))
			}
		}
		primStats := sh.members[0].Stats()
		for f := 1; f < len(sh.members); f++ {
			fs := sh.members[f].Stats()
			if fmt.Sprintf("%+v", fs) != fmt.Sprintf("%+v", primStats) {
				return r.violation(i, "replica-divergence",
					fmt.Sprintf("shard %d follower %d stats %+v != primary %+v", s, f, fs, primStats))
			}
		}
	}
	for _, f := range r.m.live() {
		s, sh := r.owner(f.client, f.name)
		want := f.bytes()
		got, err := firstUp(sh).GetFile(f.client, password, f.name)
		if err != nil || !bytes.Equal(got, want) {
			return r.violation(i, "shard-readability",
				fmt.Sprintf("checkpoint read of %s/%s on shard %d: err=%v bytes=%d want=%d",
					f.client, f.name, s, err, len(got), len(want)))
		}
		// Follower reads: the replicated metadata must serve the same
		// bytes without the primary's help.
		fgot, err := sh.members[len(sh.members)-1].GetFile(f.client, password, f.name)
		if err != nil || !bytes.Equal(fgot, want) {
			return r.violation(i, "follower-read",
				fmt.Sprintf("follower read of %s/%s on shard %d: err=%v bytes=%d want=%d",
					f.client, f.name, s, err, len(fgot), len(want)))
		}
		for o, other := range r.shards {
			if o == s {
				if _, err := other.members[0].ChunkCount(f.client, password, f.name); err != nil {
					return r.violation(i, "shard-isolation",
						fmt.Sprintf("owner shard %d does not hold %s/%s: %v", o, f.client, f.name, err))
				}
				continue
			}
			if _, err := other.members[0].ChunkCount(f.client, password, f.name); err == nil {
				return r.violation(i, "shard-isolation",
					fmt.Sprintf("file %s/%s leaked onto shard %d (owner %d)", f.client, f.name, o, s))
			}
		}
	}
	return nil
}

func (r *shardRunner) violation(op int, invariant, detail string) *Violation {
	v := &Violation{
		Seed: r.cfg.Seed, Ops: r.cfg.Ops, Op: op,
		Invariant: invariant, Detail: detail,
		Repro: "TestSimCheckSharded",
		Trace: r.tr.tail(25),
	}
	r.tr.addf("VIOLATION op=%d %s: %s", op, invariant, detail)
	return v
}
