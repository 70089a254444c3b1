// Command cloudctl is the client-side CLI for a running Cloud Data
// Distributor: register clients and passwords, upload/fetch/update/remove
// files and chunks, and inspect the paper's three tables.
//
// Usage:
//
//	cloudctl -server http://localhost:9000 register bob
//	cloudctl -server http://localhost:9000 passwd bob x9pr 1
//	cloudctl -server http://localhost:9000 upload bob x9pr file1 ./local.csv 1
//	tar c dir | cloudctl -server http://localhost:9000 upload bob x9pr backup.tar - 1
//	cloudctl -server http://localhost:9000 get bob x9pr file1 ./out.csv
//	cloudctl -server http://localhost:9000 get-chunk bob x9pr file1 0
//	cloudctl -server http://localhost:9000 tables
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/raid"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	server := flag.String("server", "http://localhost:9000", "distributor base URL")
	shards := flag.String("shards", "", "comma-separated distributor URLs: route every command across these shards instead of -server")
	pl := flag.Int("pl", 1, "privacy level for uploads (0-3)")
	raid6 := flag.Bool("raid6", false, "request RAID-6 assurance on upload")
	mislead := flag.Float64("mislead", 0, "misleading-byte fraction for uploads [0,1)")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cmd, rest := args[0], args[1:]
	var hc *http.Client
	if cmd == "upload" || cmd == "cat" {
		// Streaming transfers run as long as the object is large; the
		// default 30-second client timeout would sever them mid-body.
		hc = &http.Client{}
	}
	urls := []string{*server}
	if *shards != "" {
		urls = strings.FieldsFunc(*shards, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	}
	c, err := transport.NewShardedClient(urls, hc)
	if err == nil {
		err = run(c, cmd, rest, *pl, *raid6, *mislead)
	}
	if err != nil {
		log.Fatalf("cloudctl %s: %v", cmd, err)
	}
}

func run(c *transport.Client, cmd string, args []string, pl int, raid6 bool, mislead float64) error {
	switch cmd {
	case "register":
		need(args, 1, "register <client>")
		return c.RegisterClient(args[0])
	case "passwd":
		need(args, 3, "passwd <client> <password> <pl>")
		lvl, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("pl: %w", err)
		}
		return c.AddPassword(args[0], args[1], privacy.Level(lvl))
	case "upload":
		// The local file (or stdin with "-") feeds the wire directly, so
		// neither this process nor the distributor ever holds the whole
		// object.
		need(args, 4, "upload <client> <password> <filename> <localpath|-> [pl]")
		if len(args) >= 5 {
			lvl, err := strconv.Atoi(args[4])
			if err != nil {
				return fmt.Errorf("pl: %w", err)
			}
			pl = lvl
		}
		var r io.Reader = os.Stdin
		if args[3] != "-" {
			f, err := os.Open(args[3])
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		opts := transport.UploadOptions{MisleadFraction: mislead}
		if raid6 {
			opts.Assurance = raid.RAID6
		}
		info, err := c.UploadFrom(args[0], args[1], args[2], r, privacy.Level(pl), opts)
		if err != nil {
			return err
		}
		fmt.Printf("uploaded %s: %d bytes -> %d chunks at %v, %v assurance\n",
			info.Filename, info.Bytes, info.Chunks, info.PL, info.Raid)
		return nil
	case "cat":
		// The streaming counterpart of get: bytes land on stdout (or a
		// file) as they arrive, with bounded memory at every hop.
		need(args, 3, "cat <client> <password> <filename> [outpath|-]")
		var w io.Writer = os.Stdout
		toFile := len(args) >= 4 && args[3] != "-"
		if toFile {
			f, err := os.Create(args[3])
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		n, err := c.GetFileTo(w, args[0], args[1], args[2])
		if err != nil {
			return err
		}
		if toFile {
			fmt.Printf("streamed %s: %d bytes -> %s\n", args[2], n, args[3])
		}
		return nil
	case "get":
		need(args, 4, "get <client> <password> <filename> <outpath>")
		data, err := c.GetFile(args[0], args[1], args[2])
		if err != nil {
			return err
		}
		if err := os.WriteFile(args[3], data, 0o644); err != nil {
			return err
		}
		fmt.Printf("retrieved %s: %d bytes -> %s\n", args[2], len(data), args[3])
		return nil
	case "get-chunk":
		need(args, 4, "get-chunk <client> <password> <filename> <serial>")
		serial, err := strconv.Atoi(args[3])
		if err != nil {
			return fmt.Errorf("serial: %w", err)
		}
		data, err := c.GetChunk(args[0], args[1], args[2], serial)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case "snapshot":
		need(args, 4, "snapshot <client> <password> <filename> <serial>")
		serial, err := strconv.Atoi(args[3])
		if err != nil {
			return fmt.Errorf("serial: %w", err)
		}
		data, err := c.GetSnapshot(args[0], args[1], args[2], serial)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case "update-chunk":
		need(args, 5, "update-chunk <client> <password> <filename> <serial> <localpath>")
		serial, err := strconv.Atoi(args[3])
		if err != nil {
			return fmt.Errorf("serial: %w", err)
		}
		data, err := os.ReadFile(args[4])
		if err != nil {
			return err
		}
		return c.UpdateChunk(args[0], args[1], args[2], serial, data)
	case "rm":
		need(args, 3, "rm <client> <password> <filename>")
		return c.RemoveFile(args[0], args[1], args[2])
	case "rm-chunk":
		need(args, 4, "rm-chunk <client> <password> <filename> <serial>")
		serial, err := strconv.Atoi(args[3])
		if err != nil {
			return fmt.Errorf("serial: %w", err)
		}
		return c.RemoveChunk(args[0], args[1], args[2], serial)
	case "get-range":
		need(args, 5, "get-range <client> <password> <filename> <offset> <length>")
		offset, err := strconv.Atoi(args[3])
		if err != nil {
			return fmt.Errorf("offset: %w", err)
		}
		length, err := strconv.Atoi(args[4])
		if err != nil {
			return fmt.Errorf("length: %w", err)
		}
		data, err := c.GetRange(args[0], args[1], args[2], offset, length)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case "scrub":
		rep, err := c.Scrub()
		if err != nil {
			return err
		}
		fmt.Printf("scrub: checked=%d healthy=%d repaired=%d unrepairable=%d\n",
			rep.ChunksChecked, rep.Healthy, rep.Repaired, rep.Unrepairable)
		return nil
	case "decommission":
		need(args, 1, "decommission <provider-index>")
		idx, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("provider-index: %w", err)
		}
		rep, err := c.Decommission(idx)
		if err != nil {
			return err
		}
		fmt.Printf("decommissioned %s: chunks=%d mirrors=%d parity=%d snapshots=%d moved\n",
			rep.Provider, rep.ChunksMoved, rep.MirrorsMoved, rep.ParityMoved, rep.SnapshotsMoved)
		return nil
	case "count":
		need(args, 3, "count <client> <password> <filename>")
		n, err := c.ChunkCount(args[0], args[1], args[2])
		if err != nil {
			return err
		}
		fmt.Println(n)
		return nil
	case "tables":
		prows, err := c.ProviderTable()
		if err != nil {
			return err
		}
		fmt.Println("Table I — Cloud Provider Table")
		fmt.Print(core.FormatProviderTable(prows))
		crows, err := c.ClientTable()
		if err != nil {
			return err
		}
		fmt.Println("\nTable II — Client Table")
		fmt.Print(core.FormatClientTable(crows))
		chrows, err := c.ChunkTable()
		if err != nil {
			return err
		}
		fmt.Println("\nTable III — Chunk Table")
		fmt.Print(core.FormatChunkTable(chrows))
		return nil
	case "stats":
		s, err := c.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("clients=%d files=%d chunks=%d parity=%d stripes=%d per-provider=%v\n",
			s.Clients, s.Files, s.Chunks, s.ParityShards, s.Stripes, s.PerProvider)
		return nil
	case "health":
		h, err := c.HealthReport()
		if err != nil {
			return err
		}
		m, err := c.Metrics()
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-9s %-5s %10s %10s %8s %6s %8s %9s\n",
			"PROVIDER", "STATE", "LIVE", "SUCCESSES", "FAILURES", "CONSEC", "OPENS", "WINDOW", "EWMA(ms)")
		for _, p := range h.Providers {
			live := "up"
			if p.Down {
				live = "down"
			}
			fmt.Printf("%-12s %-9s %-5s %10d %10d %8d %6d %7.0f%% %9.2f\n",
				p.Provider, p.State, live, p.Successes, p.Failures,
				p.ConsecutiveFailures, p.Opens, 100*p.WindowFailureRatio, p.LatencyEWMAMs)
		}
		fmt.Printf("\nfailovers=%d rollback-deletes=%d circuit-opens=%d probe-successes=%d\n",
			m.WriteFailovers, m.RollbackDeletes, m.CircuitOpens, m.ProbeSuccesses)
		fmt.Printf("hedged-reads=%d hedge-wins=%d coalesced-reads=%d corruptions-detected=%d\n",
			m.HedgedReads, m.HedgeWins, m.CoalescedReads, m.CorruptionsDetected)
		fmt.Printf("bulk-gets=%d bulk-blobs=%d bulk-deletes=%d bulk-delete-blobs=%d\n",
			m.BulkGets, m.BulkBlobs, m.BulkDeletes, m.BulkDeleteBlobs)
		if m.WAL.Enabled {
			fmt.Printf("wal: records=%d fsyncs=%d checkpoints=%d tail=%d replayed=%d orphans-swept=%d\n",
				m.WAL.Records, m.WAL.Fsyncs, m.WAL.Checkpoints, m.WAL.SinceCheckpoint,
				m.WAL.Replayed, m.WAL.RecoveryOrphans)
		}
		return nil
	case "locate":
		// Routing is computed locally from the shard list: no round-trip.
		need(args, 2, "[-shards url1,url2,...] locate <client> <filename>")
		loc := c.Locate(args[0], args[1])
		fmt.Printf("file %s/%s\n", args[0], args[1])
		fmt.Printf("  key    %016x\n", loc.Key)
		fmt.Printf("  shard  %d of %d\n", loc.Shard, c.Shards())
		fmt.Printf("  owner  %s\n", loc.ShardURL)
		return nil
	case "wal-info":
		need(args, 1, "wal-info <wal-dir>")
		return walInfo(args[0])
	default:
		usage()
		return nil
	}
}

// walInfo inspects a WAL directory offline: the segment/snapshot
// inventory, the record-codec versions its frames carry (two of them
// means the directory spans an upgrade), then a full replay validation.
// Corruption makes it return an error, which main turns into a nonzero
// exit — so it doubles as a pre-restart integrity gate in scripts.
func walInfo(dir string) error {
	info, err := wal.Inspect(dir)
	if err != nil {
		return err
	}
	fmt.Printf("wal directory %s\n", info.Dir)
	fmt.Printf("%-28s %12s %10s %10s %s\n", "SEGMENT", "BASE-LSN", "RECORDS", "BYTES", "NOTE")
	for _, s := range info.Segments {
		note := ""
		if s.TornTail {
			note = "torn tail (will be truncated on open)"
		}
		fmt.Printf("%-28s %12d %10d %10d %s\n", filepath.Base(s.Path), s.Base, s.Records, s.Bytes, note)
	}
	fmt.Printf("%-28s %12s %10s %s\n", "SNAPSHOT", "LSN", "BYTES", "AGE")
	for _, s := range info.Snapshots {
		fmt.Printf("%-28s %12d %10d %s\n", filepath.Base(s.Path), s.LSN, s.Bytes,
			time.Since(s.ModTime).Round(time.Second))
	}

	rep, err := core.ValidateWALDir(dir)
	if len(rep.CodecVersions) > 0 {
		fmt.Printf("\ncodec versions: %v\n", rep.CodecVersions)
	}
	if err != nil {
		return fmt.Errorf("replay validation FAILED: %w", err)
	}
	fmt.Printf("replay validation OK: snapshot=%v (lsn %d), %d tail records, torn-tail=%v\n",
		rep.HasSnapshot, rep.SnapshotLSN, rep.Records, rep.TailTruncated)
	fmt.Printf("recovered state: gen=%d clients=%d files=%d live-chunks=%d stripes=%d\n",
		rep.Gen, rep.Clients, rep.Files, rep.LiveChunks, rep.Stripes)
	return nil
}

func need(args []string, n int, usageLine string) {
	if len(args) < n {
		fmt.Fprintf(os.Stderr, "usage: cloudctl %s\n", usageLine)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cloudctl [-server URL | -shards URL,...] [-pl N] [-raid6] [-mislead F] <command> ...

commands:
  register <client>
  passwd <client> <password> <pl>
  upload <client> <password> <filename> <localpath|-> [pl]   (streaming; "-" reads stdin)
  get <client> <password> <filename> <outpath>
  cat <client> <password> <filename> [outpath|-]             (streaming; default stdout)
  get-chunk <client> <password> <filename> <serial>
  snapshot <client> <password> <filename> <serial>
  update-chunk <client> <password> <filename> <serial> <localpath>
  rm <client> <password> <filename>
  rm-chunk <client> <password> <filename> <serial>
  get-range <client> <password> <filename> <offset> <length>
  count <client> <password> <filename>
  scrub
  decommission <provider-index>
  tables
  stats
  health               (providers, op metrics, wal)
  locate <client> <filename>   (the owning shard)
  wal-info <wal-dir>   (offline: inventory, codec versions + replay-validate a WAL directory)`)
	os.Exit(2)
}
