package core

import "sync/atomic"

// OpMetrics counts the distributor's data-path events — the observability
// a production deployment needs to see how often the resilience machinery
// (mirrors, RAID reconstruction, retries) actually fires.
type OpMetrics struct {
	Uploads   int64
	FileReads int64
	// StreamUploads counts the uploads that arrived behind an io.Reader
	// (UploadStream) rather than as a byte slice — the entry point, not a
	// pipeline: there is one. Every upload over the wire is one, since
	// the upload route feeds the request body to UploadStream.
	// StreamReads counts GetFileTo. Both are also included in Uploads /
	// FileReads.
	StreamUploads    int64
	StreamReads      int64
	ChunkReads       int64
	RangeReads       int64
	Updates          int64
	Removes          int64
	PrimaryHits      int64 // payload served by the chunk's own provider
	MirrorHits       int64 // payload served by a replica
	Reconstructions  int64 // payload rebuilt from RAID peers
	TransientRetries int64
	WriteFailovers   int64 // shards re-placed after a put exhausted retries
	RollbackDeletes  int64 // best-effort deletes issued unwinding a failed write
	CircuitOpens     int64 // provider circuit-breaker open events
	ProbeSuccesses   int64 // half-open probes that closed a circuit
	HedgedReads      int64 // payload reads where a hedge rung was launched
	HedgeWins        int64 // reads won by a hedge-launched rung
	CoalescedReads   int64 // reads served by another reader's in-flight fetch
	// BulkGets counts the provider calls made by the primary-fetch step of
	// GetFile and GetRange, BulkBlobs the blobs those calls asked for:
	// BulkBlobs ÷ BulkGets is how many chunk reads share a round trip.
	BulkGets  int64
	BulkBlobs int64
	// BulkDeletes counts the provider calls made by the delete step — every
	// remove, retire, rollback and collection — and BulkDeleteBlobs the
	// blobs those calls deleted: the same ratio for deletes.
	BulkDeletes     int64
	BulkDeleteBlobs int64
	// CorruptionsDetected counts provider answers that had the right
	// length but failed end-to-end verification — silent corruption the
	// read ladder rescued (or at least refused to serve).
	CorruptionsDetected int64
	// Cache reports the read-side chunk cache; all-zero when caching is
	// disabled (Config.CacheBytes == 0).
	Cache CacheStats
	// WAL reports the durability layer; all-zero when the distributor is
	// in-memory (Config.WALDir == ""). Deterministic under SyncAlways.
	WAL WALStats
}

// opCounters is the internal atomic representation.
type opCounters struct {
	uploads, fileReads, chunkReads, rangeReads, updates, removes atomic.Int64
	streamUploads, streamReads                                   atomic.Int64
	primaryHits, mirrorHits, reconstructions, transientRetries   atomic.Int64
	writeFailovers, rollbackDeletes                              atomic.Int64
	hedgedReads, hedgeWins, corruptionsDetected                  atomic.Int64
	bulkGets, bulkBlobs, bulkDeletes, bulkDeleteBlobs            atomic.Int64
}

// Metrics returns a snapshot of the distributor's operation counters.
func (d *Distributor) Metrics() OpMetrics {
	opens, probes := d.health.Totals()
	return OpMetrics{
		Uploads:             d.counters.uploads.Load(),
		FileReads:           d.counters.fileReads.Load(),
		StreamUploads:       d.counters.streamUploads.Load(),
		StreamReads:         d.counters.streamReads.Load(),
		ChunkReads:          d.counters.chunkReads.Load(),
		RangeReads:          d.counters.rangeReads.Load(),
		Updates:             d.counters.updates.Load(),
		Removes:             d.counters.removes.Load(),
		PrimaryHits:         d.counters.primaryHits.Load(),
		MirrorHits:          d.counters.mirrorHits.Load(),
		Reconstructions:     d.counters.reconstructions.Load(),
		TransientRetries:    d.counters.transientRetries.Load(),
		WriteFailovers:      d.counters.writeFailovers.Load(),
		RollbackDeletes:     d.counters.rollbackDeletes.Load(),
		CircuitOpens:        opens,
		ProbeSuccesses:      probes,
		HedgedReads:         d.counters.hedgedReads.Load(),
		HedgeWins:           d.counters.hedgeWins.Load(),
		CoalescedReads:      d.flights.coalesced.Load(),
		BulkGets:            d.counters.bulkGets.Load(),
		BulkBlobs:           d.counters.bulkBlobs.Load(),
		BulkDeletes:         d.counters.bulkDeletes.Load(),
		BulkDeleteBlobs:     d.counters.bulkDeleteBlobs.Load(),
		CorruptionsDetected: d.counters.corruptionsDetected.Load(),
		Cache:               d.cache.stats(),
		WAL:                 d.walStats(),
	}
}
