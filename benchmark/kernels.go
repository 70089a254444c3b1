package main

import (
	"math/rand"
	"os"
	"time"

	"repro/internal/bufpool"
	"repro/internal/chunker"
	"repro/internal/cryptofrag"
	"repro/internal/mislead"
	"repro/internal/privacy"
	"repro/internal/raid"
	"repro/internal/wal"
)

// kernelTimes holds the byte movers' costs on the workload's own chunk
// size and stripe shape, in ns per user byte.
type kernelTimes struct {
	perByte map[string]float64
}

// timeRepeated runs fn until 30 ms or 200 runs have passed (at least 5)
// and returns the median time of one run.
func timeRepeated(fn func()) time.Duration {
	var runs []float64
	for total := time.Duration(0); len(runs) < 5 || (total < 30*time.Millisecond && len(runs) < 200); {
		start := time.Now()
		fn()
		d := time.Since(start)
		total += d
		runs = append(runs, float64(d))
	}
	return time.Duration(rawMedian(runs))
}

// timeKernels times each kernel the way the workload's put and get use
// it: chunker.Split (which includes SHA-256) and Reassemble over an
// object of the workload's size, parity and single-loss reconstruction
// over stripes of the workload's width and level, misleading-byte
// injection and stripping and AES-CTR sealing over one chunk.
func timeKernels(sp spec) kernelTimes {
	policy := privacy.DefaultChunkSizes()
	chunkSize, _ := policy.Size(sp.pl)
	level := sp.workers[0].opts.Assurance
	if level == 0 {
		level = raid.RAID5
	}
	object := make([]byte, sp.kernelBytes)
	fill(object, 0xfeed, 0)
	perByte := func(d time.Duration, n int) float64 { return float64(d) / float64(n) }
	k := kernelTimes{perByte: map[string]float64{}}

	var chunks []chunker.Chunk
	release := func() {
		for _, c := range chunks {
			bufpool.Put(c.Data)
		}
	}
	k.perByte["chunker_split_ns_per_byte"] = perByte(timeRepeated(func() {
		release()
		chunks, _ = chunker.Split(object, sp.pl, policy)
	}), len(object))
	k.perByte["chunker_reassemble_ns_per_byte"] = perByte(timeRepeated(func() {
		_, _ = chunker.Reassemble(chunks)
	}), len(object))
	release()

	data := make([][]byte, stripeWidth)
	for i := range data {
		data[i] = object[i*chunkSize%len(object):][:min(chunkSize, len(object))]
	}
	stripeBytes := stripeWidth * len(data[0])
	parity := make([][]byte, level.ParityShards())
	for i := range parity {
		parity[i] = make([]byte, len(data[0]))
	}
	k.perByte["raid_parity_ns_per_byte"] = perByte(timeRepeated(func() {
		_ = raid.ParityInto(level, data, parity)
	}), stripeBytes)
	var stripe *raid.Stripe
	var rebuild []float64
	for i := 0; i < 50; i++ {
		stripe, _ = raid.Encode(level, data)
		stripe.Shards[0] = nil
		start := time.Now()
		_ = stripe.Reconstruct()
		rebuild = append(rebuild, float64(time.Since(start)))
	}
	k.perByte["raid_reconstruct_ns_per_byte"] = rawMedian(rebuild) / float64(stripeBytes)

	chunk := data[0]
	rng := rand.New(rand.NewSource(1))
	var inflated []byte
	var inj mislead.Injection
	k.perByte["mislead_inject_ns_per_byte"] = perByte(timeRepeated(func() {
		inflated, inj, _ = mislead.Inject(chunk, 0.25, rng)
	}), len(chunk))
	stripped := make([]byte, 0, len(chunk))
	k.perByte["mislead_strip_ns_per_byte"] = perByte(timeRepeated(func() {
		_, _ = mislead.StripTo(stripped[:0], inflated, inj)
	}), len(chunk))

	var sealed []byte
	k.perByte["crypt_ns_per_byte"] = perByte(timeRepeated(func() {
		sealed, _ = cryptofrag.Encrypt(encryptKey, chunk, 1)
	}), len(chunk))
	k.perByte["decrypt_ns_per_byte"] = perByte(timeRepeated(func() {
		_, _ = cryptofrag.Decrypt(encryptKey, sealed)
	}), len(chunk))
	return k
}

// estimate multiplies the kernel costs out to the time they should take
// in one put or get of the given size: what the byte movers account for
// in that operation's core self time.
func (k kernelTimes) estimate(sp spec, kind opKind, bytes float64) (float64, bool) {
	var ns float64
	switch kind {
	case opPut:
		opts := sp.workers[0].opts
		ns = k.perByte["chunker_split_ns_per_byte"] + k.perByte["raid_parity_ns_per_byte"]
		if opts.MisleadFraction > 0 {
			ns += k.perByte["mislead_inject_ns_per_byte"]
		}
		if len(opts.EncryptKey) > 0 {
			ns += k.perByte["crypt_ns_per_byte"]
		}
	case opGet:
		// Reads come from the last worker's tenant (the reader, where
		// there is one).
		opts := sp.workers[len(sp.workers)-1].opts
		ns = k.perByte["chunker_reassemble_ns_per_byte"]
		if opts.MisleadFraction > 0 {
			ns += k.perByte["mislead_strip_ns_per_byte"]
		}
		if len(opts.EncryptKey) > 0 {
			ns += k.perByte["decrypt_ns_per_byte"]
		}
	default:
		return 0, false
	}
	return ns * bytes / 1e6, true
}

// walAppendCost times wal.Log.Append plus Sync on a scratch log under
// the deployment's sync policy, at the record size and records-per-fsync
// the traced passes observed. It returns microseconds per record.
func walAppendCost(dir string, recordBytes, batch int) (float64, error) {
	scratch, err := os.MkdirTemp(dir, "walscratch-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)
	log, _, err := wal.Open(scratch, wal.Options{Policy: walPolicy})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	record := make([]byte, max(recordBytes, 64))
	batch = min(max(batch, 1), 64)
	var perRecord []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		for j := 0; j < batch; j++ {
			if err := log.Append(record); err != nil {
				return 0, err
			}
		}
		if err := log.Sync(); err != nil {
			return 0, err
		}
		perRecord = append(perRecord, float64(time.Since(start))/float64(batch)/1e3)
	}
	return rawMedian(perRecord), nil
}
