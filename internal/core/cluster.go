package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/privacy"
)

// ExportMetadata serializes the distributor's full committed state —
// everything a secondary needs to serve retrievals (Fig. 2's extended
// architecture) plus the commit generation and allocator watermarks, so
// an imported snapshot leaves the replica able to take over as primary
// without re-issuing identifiers the exporter already used. Because
// mutations stage off-table and only touch the live tables in their
// commit (under d.mu), the snapshot always reflects a consistent
// committed state: no half-shipped upload's rows, pending provider counts
// or reservations ever leak into it.
func (d *Distributor) ExportMetadata() ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.exportMetadataLocked(), nil
}

// exportMetadataLocked is ExportMetadata under a caller-held read lock,
// so a Cluster can pin the replication sequence number to the exact
// state it serializes. The payload is the fleet size, so an importer over
// a different fleet can refuse it, then the same encoding of the same
// state a WAL checkpoint holds.
func (d *Distributor) exportMetadataLocked() []byte {
	return append(binary.AppendUvarint(nil, uint64(d.fleet.Len())), encodeWALState(d.stateLocked())...)
}

// ImportMetadata replaces the distributor's tables with a snapshot
// exported by another distributor over the same fleet, the way a
// recovery installs a checkpoint: generation from the snapshot, allocator
// watermarks only ever advancing, provider counts recomputed from the
// tables.
func (d *Distributor) ImportMetadata(data []byte) error {
	fleetLen, n := binary.Uvarint(data)
	if n <= 0 {
		return fmt.Errorf("core: import metadata: truncated snapshot")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if fleetLen != uint64(d.fleet.Len()) {
		return fmt.Errorf("%w: snapshot covers %d providers, fleet has %d", ErrConfig, fleetLen, d.fleet.Len())
	}
	var st walState
	if err := decodeWALState(data[n:], &st); err != nil {
		return fmt.Errorf("core: import metadata: %w", err)
	}
	if err := d.installCountedState(&st); err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	}
	// A durable secondary must checkpoint immediately: its log records
	// predate the imported tables and no longer replay against them.
	if d.wal != nil && !d.closed {
		if err := d.checkpointLocked(); err != nil {
			return fmt.Errorf("core: import metadata: %w", err)
		}
	}
	return nil
}

// clusterLogRetention bounds the in-memory replication log. A secondary
// that falls further behind than this (a long outage) is caught up with
// one full snapshot instead of an unbounded record queue.
const clusterLogRetention = 4096

// Cluster is the paper's extended architecture (Fig. 2): several Cloud
// Data Distributors over one provider fleet. "For each client, a specific
// distributor will act as the primary distributor that will upload data,
// whereas other distributors will act as secondary distributors who can
// perform the data retrieval operations."
//
// Replication is incremental: the primary's commit hook feeds every
// committed mutation's encoded WAL record into a bounded in-memory log,
// and Sync ships only the records a secondary has not applied yet —
// O(mutation) per op instead of the old full-snapshot-per-mutation
// O(table) behavior. Each secondary applies records through the same
// validated replay path recovery uses; a conflict (generation running
// backwards) or any structural mismatch flips the member to a full
// snapshot resync. Reads fail over primary-first and are served off the
// follower's ordinary RWMutex/hedged read path.
//
// A distributor can be the primary of at most one Cluster at a time:
// NewCluster installs the cluster's commit hook on it, displacing any
// previous one.
type Cluster struct {
	mu    sync.Mutex
	dists []*Distributor
	down  []bool

	// Replication log: log[k] is the encoded commit record with sequence
	// number logBase+k; head is the newest sequence (0 = nothing yet),
	// applied[i] the last sequence member i has applied (applied[0]
	// tracks the primary and always equals head), needSnap[i] marks a
	// secondary whose next sync must ship a full snapshot.
	log      [][]byte
	logBase  uint64
	head     uint64
	applied  []uint64
	needSnap []bool

	recordsReplicated uint64
	snapshotSyncs     uint64

	// syncMu[i-1] serializes catch-up of secondary i, so concurrent
	// Syncs cannot double-apply a batch. Ordered above c.mu and every
	// distributor lock.
	syncMu []sync.Mutex
}

// NewCluster groups distributors; the first is the primary. All must
// share the same provider fleet. Secondaries whose commit generation
// differs from the primary's at grouping time (a recovered or foreign
// replica) are marked for a snapshot resync on first Sync; equal
// generations are trusted to mean equal state, which holds for replicas
// of one WAL lineage.
func NewCluster(dists ...*Distributor) (*Cluster, error) {
	if len(dists) == 0 {
		return nil, fmt.Errorf("%w: empty cluster", ErrConfig)
	}
	for _, dd := range dists[1:] {
		if dd.fleet != dists[0].fleet {
			return nil, fmt.Errorf("%w: distributors must share one fleet", ErrConfig)
		}
	}
	c := &Cluster{
		dists:    dists,
		down:     make([]bool, len(dists)),
		logBase:  1,
		applied:  make([]uint64, len(dists)),
		needSnap: make([]bool, len(dists)),
		syncMu:   make([]sync.Mutex, len(dists)-1),
	}
	pgen := dists[0].Generation()
	for i, dd := range dists[1:] {
		if dd.Generation() != pgen {
			c.needSnap[i+1] = true
		}
	}
	dists[0].setCommitHook(func(raw []byte) {
		// Runs under the primary's d.mu; lock order is d.mu before c.mu,
		// so nothing here (or anywhere holding c.mu) may call back into
		// a distributor.
		c.mu.Lock()
		c.head++
		c.log = append(c.log, raw)
		c.applied[0] = c.head
		// Bound the queue even if nobody ever calls Sync: beyond twice
		// the retention, fold back to retention (amortized O(1));
		// trimmed-past members resync via snapshot.
		if len(c.log) >= 2*clusterLogRetention {
			rest := make([][]byte, clusterLogRetention)
			copy(rest, c.log[len(c.log)-clusterLogRetention:])
			c.logBase += uint64(len(c.log) - clusterLogRetention)
			c.log = rest
		}
		c.mu.Unlock()
	})
	return c, nil
}

// Primary returns the upload distributor.
func (c *Cluster) Primary() *Distributor { return c.dists[0] }

// Size returns the number of distributors.
func (c *Cluster) Size() int { return len(c.dists) }

// SetDown simulates a distributor failure (index 0 is the primary).
// Bringing a secondary back up replays everything it missed before it
// serves again, so a healed replica never answers from stale tables.
func (c *Cluster) SetDown(i int, down bool) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.dists) {
		c.mu.Unlock()
		return fmt.Errorf("%w: distributor index %d", ErrConfig, i)
	}
	was := c.down[i]
	c.down[i] = down
	c.mu.Unlock()
	if was && !down && i > 0 {
		return c.syncSecondary(i)
	}
	return nil
}

// Sync replicates the primary's outstanding commit records to every up
// secondary. Down secondaries are skipped — their lag is visible via
// Lag() and they catch up when SetDown brings them back — instead of
// the old behavior of silently shipping snapshots nobody could serve.
func (c *Cluster) Sync() error {
	var errs []error
	for i := 1; i < len(c.dists); i++ {
		c.mu.Lock()
		down := c.down[i]
		c.mu.Unlock()
		if down {
			continue
		}
		if err := c.syncSecondary(i); err != nil {
			errs = append(errs, fmt.Errorf("core: sync to secondary %d: %w", i, err))
		}
	}
	c.mu.Lock()
	c.trimLocked()
	c.mu.Unlock()
	return errors.Join(errs...)
}

// syncSecondary replays secondary i forward to the primary's head:
// incrementally when the retained log still covers its cursor, with one
// full snapshot when it does not (or when a record refuses to apply).
func (c *Cluster) syncSecondary(i int) error {
	c.syncMu[i-1].Lock()
	defer c.syncMu[i-1].Unlock()
	for {
		c.mu.Lock()
		snap := c.needSnap[i] || c.applied[i]+1 < c.logBase
		var batch [][]byte
		if !snap {
			if c.applied[i] >= c.head {
				c.mu.Unlock()
				return nil
			}
			batch = append([][]byte(nil), c.log[c.applied[i]+1-c.logBase:]...)
		}
		c.mu.Unlock()

		if snap {
			return c.snapshotSync(i)
		}
		for _, raw := range batch {
			if _, err := c.dists[i].ApplyReplicated(raw); err != nil {
				c.mu.Lock()
				c.needSnap[i] = true
				c.mu.Unlock()
				if snapErr := c.snapshotSync(i); snapErr != nil {
					return errors.Join(err, snapErr)
				}
				return nil
			}
			c.mu.Lock()
			c.applied[i]++
			c.recordsReplicated++
			c.mu.Unlock()
		}
	}
}

// snapshotSync ships one full metadata snapshot to secondary i and
// fast-forwards its cursor to the sequence the snapshot covers.
func (c *Cluster) snapshotSync(i int) error {
	raw, upTo := c.exportPrimaryWithSeq()
	if err := c.dists[i].ImportMetadata(raw); err != nil {
		return err
	}
	c.mu.Lock()
	c.applied[i] = upTo
	c.needSnap[i] = false
	c.snapshotSyncs++
	c.mu.Unlock()
	return nil
}

// exportPrimaryWithSeq snapshots the primary's tables together with the
// replication sequence the snapshot covers. Commits append to the
// cluster log under the primary's write lock, so holding its read lock
// pins head to exactly the serialized state — no record can land in
// between and be skipped by the fast-forwarded cursor.
func (c *Cluster) exportPrimaryWithSeq() ([]byte, uint64) {
	p := c.dists[0]
	p.mu.RLock()
	defer p.mu.RUnlock()
	c.mu.Lock()
	upTo := c.head
	c.mu.Unlock()
	return p.exportMetadataLocked(), upTo
}

// trimLocked drops log entries every reachable secondary has applied
// and bounds the rest to clusterLogRetention; a member trimmed past is
// detected by its cursor falling behind logBase and resynced with a
// snapshot. Callers hold c.mu.
func (c *Cluster) trimLocked() {
	min := c.head
	for i := 1; i < len(c.dists); i++ {
		if c.needSnap[i] || c.applied[i]+1 < c.logBase {
			continue
		}
		if c.applied[i] < min {
			min = c.applied[i]
		}
	}
	drop := int(min + 1 - c.logBase)
	if over := len(c.log) - drop - clusterLogRetention; over > 0 {
		drop += over
	}
	if drop <= 0 {
		return
	}
	rest := make([][]byte, len(c.log)-drop)
	copy(rest, c.log[drop:])
	c.log = rest
	c.logBase += uint64(drop)
}

// ReplicaLag is one cluster member's replication position: how far its
// applied state trails the primary, in commit records and generations.
type ReplicaLag struct {
	Index        int    `json:"index"`
	Role         string `json:"role"` // "primary" or "secondary"
	Down         bool   `json:"down"`
	Generation   uint64 `json:"generation"`  // member's last-applied commit generation
	AppliedSeq   uint64 `json:"applied_seq"` // last replication sequence applied
	LagRecords   uint64 `json:"lag_records"` // commit records behind the primary
	NeedSnapshot bool   `json:"needs_snapshot,omitempty"`
}

// Lag reports every member's replication position, primary first. This
// is the staleness the old Sync hid: a down secondary keeps serving its
// last-applied generation, and the gap is visible here (and on
// /v1/health) instead of silently growing.
func (c *Cluster) Lag() []ReplicaLag {
	c.mu.Lock()
	out := make([]ReplicaLag, len(c.dists))
	for i := range c.dists {
		out[i] = ReplicaLag{
			Index:        i,
			Role:         "secondary",
			Down:         c.down[i],
			AppliedSeq:   c.applied[i],
			LagRecords:   c.head - c.applied[i],
			NeedSnapshot: c.needSnap[i],
		}
	}
	out[0].Role = "primary"
	c.mu.Unlock()
	// Generations are read outside c.mu: distributor locks are ordered
	// above the cluster lock.
	for i := range out {
		out[i].Generation = c.dists[i].Generation()
	}
	return out
}

// ReplicationStats summarizes the cluster's replication machinery, for
// tests and operator tooling.
type ReplicationStats struct {
	Head              uint64 // commit records fed by the primary
	RecordsReplicated uint64 // incremental applies across all secondaries
	SnapshotSyncs     uint64 // full-snapshot fallbacks
	LogLen            int    // records currently retained
}

// ReplicationStats returns a snapshot of the replication counters.
func (c *Cluster) ReplicationStats() ReplicationStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ReplicationStats{
		Head:              c.head,
		RecordsReplicated: c.recordsReplicated,
		SnapshotSyncs:     c.snapshotSyncs,
		LogLen:            len(c.log),
	}
}

// primaryUp reports whether uploads can proceed.
func (c *Cluster) primaryUp() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.down[0]
}

// RegisterClient registers on the primary and replicates.
func (c *Cluster) RegisterClient(name string) error {
	if !c.primaryUp() {
		return fmt.Errorf("%w: primary distributor down", ErrUnavailable)
	}
	if err := c.dists[0].RegisterClient(name); err != nil {
		return err
	}
	return c.Sync()
}

// AddPassword adds a password on the primary and replicates.
func (c *Cluster) AddPassword(client, password string, pl privacy.Level) error {
	if !c.primaryUp() {
		return fmt.Errorf("%w: primary distributor down", ErrUnavailable)
	}
	if err := c.dists[0].AddPassword(client, password, pl); err != nil {
		return err
	}
	return c.Sync()
}

// Upload uploads through the primary and replicates metadata.
func (c *Cluster) Upload(client, password, filename string, data []byte, pl privacy.Level, opts UploadOptions) (FileInfo, error) {
	if !c.primaryUp() {
		return FileInfo{}, fmt.Errorf("%w: primary distributor down", ErrUnavailable)
	}
	info, err := c.dists[0].Upload(client, password, filename, data, pl, opts)
	if err != nil {
		return FileInfo{}, err
	}
	return info, c.Sync()
}

// eachUp visits distributors (primary first) until fn succeeds.
func (c *Cluster) eachUp(fn func(*Distributor) error) error {
	var lastErr error = fmt.Errorf("%w: all distributors down", ErrUnavailable)
	for i, dd := range c.dists {
		c.mu.Lock()
		down := c.down[i]
		c.mu.Unlock()
		if down {
			continue
		}
		if err := fn(dd); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// GetChunk retrieves via the first healthy distributor.
func (c *Cluster) GetChunk(client, password, filename string, serial int) ([]byte, error) {
	var out []byte
	err := c.eachUp(func(dd *Distributor) error {
		data, err := dd.GetChunk(client, password, filename, serial)
		if err != nil {
			return err
		}
		out = data
		return nil
	})
	return out, err
}

// GetFile retrieves a whole file via the first healthy distributor.
func (c *Cluster) GetFile(client, password, filename string) ([]byte, error) {
	var out []byte
	err := c.eachUp(func(dd *Distributor) error {
		data, err := dd.GetFile(client, password, filename)
		if err != nil {
			return err
		}
		out = data
		return nil
	})
	return out, err
}
