// Package core implements the Cloud Data Distributor, the paper's central
// contribution: "the entity that receives data (files) from clients,
// performs fragmentation of data (splits files into chunks) and
// distributes these fragments (chunks) among Cloud Providers. It also
// participates in data retrieving procedure... Clients do not interact
// with Cloud Providers directly rather via Cloud Data Distributor."
//
// The distributor maintains the paper's three tables (Cloud Provider
// Table, Client Table, Chunk Table), enforces ⟨password, privacy-level⟩
// access control, allocates virtual chunk ids that conceal client
// identity from providers, applies RAID-5/6 striping for availability,
// optionally injects misleading bytes, and keeps pre-modification chunk
// snapshots on a distinct snapshot provider.
package core

import (
	"errors"

	"repro/internal/mislead"
	"repro/internal/privacy"
	"repro/internal/raid"
)

// Errors reported by the distributor. They deliberately do not reveal
// whether a client, file or password exists beyond what the caller is
// entitled to know.
var (
	// ErrAuth covers unknown clients, wrong passwords and insufficient
	// privilege ("the password is not privileged enough to access the
	// chunk. Hence its request is denied.").
	ErrAuth = errors.New("core: access denied")
	// ErrNoSuchFile is returned for unknown filenames of an authenticated
	// client.
	ErrNoSuchFile = errors.New("core: no such file")
	// ErrNoSuchChunk is returned for out-of-range serial numbers.
	ErrNoSuchChunk = errors.New("core: no such chunk")
	// ErrExists is returned when uploading a filename that already exists.
	ErrExists = errors.New("core: file already exists")
	// ErrPlacement is returned when too few eligible providers exist for
	// the requested privacy level and assurance.
	ErrPlacement = errors.New("core: not enough eligible providers")
	// ErrUnavailable is returned when a chunk cannot be served even after
	// RAID reconstruction.
	ErrUnavailable = errors.New("core: chunk unavailable")
	// ErrNoSnapshot is returned when no pre-modification state exists.
	ErrNoSnapshot = errors.New("core: no snapshot for chunk")
	// ErrConfig is returned for invalid distributor configuration.
	ErrConfig = errors.New("core: invalid configuration")
	// ErrCircuitOpen is returned when a write is refused because the
	// target provider's circuit breaker is open. Write paths with
	// failover treat it like a put failure and re-place the shard.
	ErrCircuitOpen = errors.New("core: provider circuit open")
	// ErrRange is returned when a requested byte range lies outside the
	// file's bounds — a caller input error, distinct from a chunk that
	// is genuinely missing.
	ErrRange = errors.New("core: range outside file bounds")
	// ErrConflict is returned when a mutation loses the commit race: the
	// file it planned against was modified by a concurrent request while
	// the mutation's provider I/O was in flight. The operation had no
	// effect; callers may re-read and retry.
	ErrConflict = errors.New("core: concurrent modification")
)

// chunkEntry is one row of the paper's Chunk Table (Table III): "the
// virtual id, privacy level (PL), Cloud Provider Table index of the
// current cloud provider storing the chunk (CP), Cloud Provider Table
// index of the snapshot provider (SP) (if any), set of positions of
// misleading data bytes (M) (if any)".
type chunkEntry struct {
	VirtualID string
	PL        privacy.Level
	CPIndex   int // fleet index of the current provider
	SPIndex   int // fleet index of the snapshot provider, -1 = NA
	Mislead   mislead.Injection

	// Bookkeeping beyond the paper's table needed to serve requests.
	Client     string
	Filename   string
	Serial     int
	PayloadLen int      // stored payload length before stripe padding
	DataLen    int      // original chunk length (pre-mislead, pre-encryption)
	Sum        [32]byte // checksum of the original chunk data
	// EncKey, when non-nil, is the AES key whose ciphertext this chunk's
	// payload is (the §VII-E "encryption along with fragmentation"
	// complement). Held only in distributor metadata.
	EncKey   []byte
	StripeID int    // index into the distributor's stripe list
	SnapVID  string // virtual id of the snapshot copy, if any
	// Mirrors are full replicas of the chunk on other providers ("Same
	// chunk can be provided to multiple Cloud Providers depending on the
	// clients' requirement"), tried before RAID reconstruction.
	Mirrors []mirrorRef
}

// tombstone reduces a removed chunk's row to the bare marker every table
// scan skips on (CPIndex < 0). Rows are never compacted — a table index
// is an identity that file entries, stripes and WAL records refer to —
// so whatever a tombstone kept would live as long as the process: the
// misleading-byte positions (most of a defended chunk's row), and the
// AES key, which must not outlive the data it protected. Commit, WAL
// replay and replication apply all go through here, so recovered tables
// still DeepEqual live ones.
func (e *chunkEntry) tombstone() { *e = chunkEntry{CPIndex: -1, SPIndex: -1} }

// mirrorRef locates one replica of a chunk.
type mirrorRef struct {
	VirtualID string
	CPIndex   int
}

// parityShard is one parity member of a stripe, stored like a chunk but
// invisible to clients.
type parityShard struct {
	VirtualID string
	CPIndex   int
}

// stripeEntry groups data chunks with their parity shards.
type stripeEntry struct {
	ID       int
	Level    raid.Level
	ShardLen int
	// Members are chunk-table indices of the data shards, in shard order.
	Members []int
	Parity  []parityShard
}

// fileEntry is the per-file part of the Client Table: the paper's
// quadruples (filename, sl, PL, chunk-table idx) grouped by file.
type fileEntry struct {
	Filename string
	PL       privacy.Level
	// FID is a distributor-unique file id, assigned at upload and never
	// reused. Cache keys use it instead of (client, filename) so a remove
	// followed by a re-upload of the same name can never alias cached
	// chunks of the dead file.
	FID uint64
	// ChunkIdx[serial] is the Chunk Table index of that serial.
	ChunkIdx []int
	Raid     raid.Level
	// Gen counts committed mutations of this file. A write plans against
	// one generation and refuses to commit against another, so two
	// mutations racing on the same file cannot interleave their table
	// updates. Exported so metadata replication carries it.
	Gen uint64
}

// clientEntry is one row of the paper's Client Table (Table II).
type clientEntry struct {
	Name string
	// Passwords maps a password's SHA-256 hex digest to the privacy level
	// it unlocks — the paper's ⟨password, PL⟩ pairs used "for access
	// control which associates a group of users with a ⟨password, PL⟩
	// pair", stored hashed so metadata replicas never hold plaintext.
	Passwords map[string]privacy.Level
	Files     map[string]*fileEntry
	// Count is the client's total chunk count (paper Table II "Count").
	Count int
	// Gen counts committed mutations of the client's file set (uploads
	// and removals). Exported so metadata replication carries it.
	Gen uint64
}

// UploadOptions tunes one upload beyond the defaults.
type UploadOptions struct {
	// Assurance selects the RAID level ("The default choice is RAID level
	// 5. In case of higher assurance, RAID level 6 is used."). Zero means
	// the distributor default.
	Assurance raid.Level
	// NoParity disables RAID striping for this upload — the
	// single-copy baseline (raid.None cannot be expressed through
	// Assurance because its zero value means "default").
	NoParity bool
	// MisleadFraction ∈ [0,1): ratio of decoy bytes injected per chunk
	// ("the Cloud Data Distributor may add misleading data into chunks
	// depending on the demand of clients"). 0 disables injection.
	MisleadFraction float64
	// MisleadLines, when non-nil, supplies whole decoy records to insert
	// instead of byte-level decoys; used for line-oriented files where
	// decoys must parse like real records to mislead mining.
	MisleadLines [][]byte
	// Replicas adds that many full copies of every data chunk on distinct
	// providers — the paper's per-client assurance knob ("Same chunk can
	// be provided to multiple Cloud Providers depending on the clients'
	// requirement"). Replicas compose with RAID parity: mirrors are tried
	// first on retrieval, reconstruction second.
	Replicas int
	// EncryptKey, when non-empty (16/24/32 bytes), encrypts every chunk
	// payload with AES-CTR before storage — the paper's complement
	// strategy ("Concerned clients can also use encryption along with
	// fragmentation. But encryption is not an alternative to
	// fragmentation, rather it is a complement."). The key never leaves
	// the distributor's memory; providers only ever see ciphertext.
	// Mutually exclusive with misleading-data injection (decoys inside
	// ciphertext would confuse no miner).
	EncryptKey []byte
}

// FileInfo is what the distributor reports back after an upload: "The
// total number of chunks for each file is notified to the client so that
// any chunk can be asked by the client by mentioning the filename and
// serial no."
type FileInfo struct {
	Filename string
	PL       privacy.Level
	Chunks   int
	Raid     raid.Level
	Bytes    int
}
