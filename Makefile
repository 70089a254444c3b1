# Tier-1 gate: everything `make check` runs must stay green.
#
#   make check            vet + build + race tests + fuzz seed corpora
#                         (the race tests include internal/archcheck: the
#                         one-home rules routes, tables, placement, snapshot,
#                         delete and replication, and the gofmt check)
#   make loc              non-test Go code lines per package and in total
#   make loc BASE=<rev>   the same beside each package's count at <rev>
#   make reach            fails on a non-test internal/ function that no binary links,
#                         unless internal/archcheck/reach_allowlist.txt names it
#   make test             plain test run
#   make fmt              gofmt rewrites the tree in place
#   make fuzz             short randomized fuzzing of the codec layers
#   FUZZTIME=30s make fuzz  longer fuzz budget
#   make loadbench        warp-class load benchmark + 1→2→4→8 shard scaling curve
#   make bench-loadsmoke  CI load smoke: short strict cloudbench run
#   make memcheck         bounded-memory streaming check (256 MiB object)
#   make simcheck         tier-2: deterministic fault-schedule simulation
#   SIMCHECK_SEEDS=64 SIMCHECK_OPS=600 make simcheck  bigger sweep
#   make walcheck         crash-restart recovery sweep (WAL durability)
#   make shardcheck       the same sweep over a sharded namespace with WAL followers
#   make trace-hashes     one "sweep seed hash" line per simcheck run, seeds 1-8 of the three sweeps (diff two trees)
#   make minecheck        adversary-in-the-loop mining campaigns + gate
#   MINECHECK_SEEDS=64 make minecheck  bigger sweep
#   make minebench        full 128-cell privacy-vs-performance frontier
#   make profile-put      where a defended 4 MiB put's CPU goes (pprof -top -cum)
#   make profile-get      where a defended 4 MiB read's CPU goes (pprof -top -cum)
#   make profile-stream-get  where a streamed 32 MiB read's CPU goes (pprof -top -cum)
#   make profile-stream-put  where a streamed 32 MiB upload's CPU goes (pprof -top -cum)

GO        ?= go
FUZZTIME  ?= 5s
SIMCHECK_SEEDS ?= 32
SIMCHECK_OPS   ?= 0
MINECHECK_SEEDS ?= 32
# The bench trajectory point: BENCH_<n>.json where n is one past the
# highest index already recorded, so a fresh `make bench`/`make loadbench`
# never silently overwrites the previous PR's numbers. Override with
# BENCHOUT=... to deliberately re-record a point.
BENCHOUT  ?= $(shell ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -1 | { read n; echo BENCH_$$((n+1)).json; })
BENCHTIME ?= 1s
LOADDUR   ?= 120s
LOADWARM  ?= 6s
# Large-object profile: every op moves a 64 MiB object, so the report's
# per-op p50 directly compares the streaming pair (sput/sget) against
# the whole-buffer baseline (put/get) at a size the buffered wire format
# only just fits. PL0 (64 KiB chunks) keeps op cost dominated by byte
# movement rather than per-chunk metadata round-trips; one closed-loop
# worker keeps ops uncontended so each latency measures the pipeline
# itself, not cross-op queueing on the 6-provider loopback fleet.
LOADWORKERS ?= 1
LOADMIX   ?= put=22,get=22,range=12,sput=22,sget=22
LOADSIZES ?= 64MiB=100
LOADPL    ?= 0
LOADKEYS  ?= 3
LOADTENANTS ?= 2
LOADWINDOW ?= 16
# Shard-scaling profile: small objects over deliberately slow providers.
# Each in-process provider serves one request at a time, each after a
# 12 ms service time, so a shard's fleet is a bank of single-server
# queues and aggregate throughput is queueing-bound, not CPU-bound — the
# curve measures namespace sharding, not host parallelism. 24 closed-loop
# workers keep the 1-distributor baseline saturated so added shards
# show up as throughput rather than idle capacity; 4 tenants × 64 keys
# leaves the per-key lease pool well above the worker count so the
# closed loop is never starved for claimable keys.
SCALEDISTS   ?= 1 2 4 8
SCALEPROVS   ?= 4
SCALELAT     ?= 12ms
SCALEWORKERS ?= 24
SCALEKEYS    ?= 64
SCALEDUR     ?= 12s
SCALEWARM    ?= 3s
SCALEMIX     ?= put=35,get=65
SCALESIZES   ?= 2KiB=100

.PHONY: check build vet loc reach test race fuzz fmt bench bench-smoke loadbench bench-loadsmoke memcheck simcheck simcheck-short walcheck walcheck-race shardcheck shardcheck-race trace-hashes minecheck minecheck-race minebench profile-put profile-get profile-stream-get profile-stream-put

check: vet build race fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Non-test Go lines that are neither blank nor comment-only, per package
# and in total — the figure "net-negative" is measured in. A report, not
# a gate. With BASE=<rev> each line also gives the count at <rev>, taken
# from a temporary git worktree: base, tree, package ("-" where a side
# has no such package).
loc:
	@tmp=$$(mktemp -d) && trap 'git worktree remove --force "$$tmp/base" 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	count() { \
		find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort | xargs awk ' \
			FNR == 1 { block = 0 } \
			{ line = $$0; sub(/^[ \t]+/, "", line) } \
			block { if (index(line, "*/")) block = 0; next } \
			line == "" || line ~ /^\/\// { next } \
			line ~ /^\/\*/ { block = !index(line, "*/"); next } \
			{ dir = FILENAME; sub(/\/[^\/]*$$/, "", dir); n[dir]++; total++ } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }'; \
	} && \
	if [ -z "$(BASE)" ]; then count; exit; fi && \
	git worktree add --quiet --detach "$$tmp/base" "$(BASE)" && \
	(cd "$$tmp/base" && count) > "$$tmp/base.loc" && count > "$$tmp/tree.loc" && \
	printf "%7s %7s %s\n" base tree "package (base: $(BASE))" && \
	awk 'FNR == NR { base[$$2] = $$1; next } { tree[$$2] = $$1 } \
		END { \
			for (k in base) if (!(k in tree)) tree[k] = "-"; \
			for (k in tree) if (k != "total") printf "%7s %7s %s\n", (k in base) ? base[k] : "-", tree[k], k | "sort -k3"; \
			close("sort -k3"); printf "%7s %7s total\n", base["total"], tree["total"] \
		}' "$$tmp/base.loc" "$$tmp/tree.loc"

# Non-test functions of internal/ that no binary links. Every main package
# (cmd/*, examples/*, benchmark) is built with inlining off, so a function
# reached only through an inlined call still shows up in the binary, and
# go tool nm lists each binary's text symbols; a declared function found in
# none of them runs only under its own tests. Each one kept on purpose (a
# test harness, a reference implementation a test compares against, a
# method of the product API) is named with its reason in $(REACHALLOW),
# one line per function or per harness package. The target prints and
# fails on an unlinked function the list does not name, and on an entry
# that names no unlinked function. It builds every binary, so make check
# leaves it out; CI runs it.
REACHALLOW := internal/archcheck/reach_allowlist.txt
reach:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mod=$$($(GO) list -m) && \
	for p in $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do \
		$(GO) build -gcflags=all=-l -o "$$tmp/bin" "$$p" || exit 1; \
		$(GO) tool nm "$$tmp/bin" >> "$$tmp/nm" || exit 1; \
	done && \
	find ./internal -name '*.go' ! -name '*_test.go' | sort | xargs awk -v mod="$$mod" ' \
		function unshape(s,  out, d, i, c) { \
			for (i = 1; i <= length(s); i++) { \
				c = substr(s, i, 1); \
				if (c == "[") d++; else if (c == "]") d--; else if (!d) out = out c \
			} \
			return out \
		} \
		FILENAME == allow { if ($$0 !~ /^#/ && NF) { split($$0, e, "\t"); listed[e[1]] = 0 } next } \
		FILENAME == nm { if ($$2 == "T" || $$2 == "t") { s = $$0; sub(/^ *[0-9a-f]+ [Tt] /, "", s); linked[unshape(s)] } next } \
		FNR == 1 { pkg = FILENAME; sub(/^\.\//, "", pkg); sub(/\/[^\/]*$$/, "", pkg) } \
		/^func / { \
			s = substr($$0, 6); recv = ""; \
			if (s ~ /^\(/) { \
				recv = s; sub(/\).*/, "", recv); n = split(substr(recv, 2), w, " "); recv = unshape(w[n]); \
				sub(/^\([^)]*\) */, "", s); \
				recv = (recv ~ /^\*/) ? "(" recv ")." : recv "." \
			} \
			name = s; sub(/[^A-Za-z0-9_].*/, "", name); \
			if (recv == "" && name == "init") next; \
			sym = mod "/" pkg "." recv name; \
			if (sym in linked) next; \
			unlinked++; \
			if (sym in listed) listed[sym]++; \
			else if ((mod "/" pkg) in listed) listed[mod "/" pkg]++; \
			else { printf "%s:%d\t%s\n", FILENAME, FNR, sym; bad++ } \
		} \
		END { \
			for (k in listed) if (!listed[k]) { printf "reach: %s is listed in %s but names no unlinked function\n", k, allow; stale++ } \
			printf "reach: %d non-test internal/ functions linked into no binary, %d of them not on %s\n", unlinked, bad, allow; \
			exit bad || stale \
		}' \
		allow=$(REACHALLOW) $(REACHALLOW) nm="$$tmp/nm" "$$tmp/nm"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Replays and extends the seed corpora of the byte-level codecs — the
# layers where a malformed payload must fail loudly, never corrupt.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSplitReassemble -fuzztime $(FUZZTIME) ./internal/chunker
	$(GO) test -run '^$$' -fuzz FuzzInjectStrip -fuzztime $(FUZZTIME) ./internal/mislead
	$(GO) test -run '^$$' -fuzz FuzzStripHostile -fuzztime $(FUZZTIME) ./internal/mislead
	$(GO) test -run '^$$' -fuzz FuzzEncryptDecrypt -fuzztime $(FUZZTIME) ./internal/cryptofrag
	$(GO) test -run '^$$' -fuzz FuzzDecryptHostile -fuzztime $(FUZZTIME) ./internal/cryptofrag
	$(GO) test -run '^$$' -fuzz FuzzKernels -fuzztime $(FUZZTIME) ./internal/raid
	$(GO) test -run '^$$' -fuzz FuzzEncodeReconstruct -fuzztime $(FUZZTIME) ./internal/raid
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzWALCodec -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzMultiGetReply -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz FuzzHopReply -fuzztime $(FUZZTIME) ./internal/transport

# Data-plane benchmarks: RAID and misleading-byte kernels, the
# distributor's read and defended-write paths and the client→distributor
# upload hop, three interleaved repetitions, summarized to $(BENCHOUT)
# with speedups over the recorded pre-optimization baselines.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count 3 \
		./internal/raid ./internal/mislead ./internal/core ./internal/transport | $(GO) run ./cmd/benchjson -out $(BENCHOUT)

# One-iteration smoke run for CI: proves every benchmark still compiles
# and executes without spending CI minutes on stable numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./internal/raid ./internal/mislead ./internal/core ./internal/transport | $(GO) run ./cmd/benchjson -out /dev/null

# Warp-class mixed-workload load benchmark (cmd/cloudbench) against an
# in-process networked fleet; latency percentiles and the throughput
# timeline merge into $(BENCHOUT) as the "load" record. A second pass
# re-runs a strict small-object put/get workload at each shard count in
# $(SCALEDISTS) — every point the same profile, only -distributors
# varies — and benchjson folds the runs into the report's scaling curve
# with speedups over the 1-distributor baseline.
loadbench:
	$(GO) run ./cmd/cloudbench -local-providers 6 -workers $(LOADWORKERS) \
		-tenants $(LOADTENANTS) -keys $(LOADKEYS) -pl $(LOADPL) \
		-mix $(LOADMIX) -sizes $(LOADSIZES) -stream-window $(LOADWINDOW) \
		-duration $(LOADDUR) -warmup $(LOADWARM) -seed 7 -out cloudbench.out.json
	for d in $(SCALEDISTS); do \
		$(GO) run ./cmd/cloudbench -distributors $$d \
			-local-providers $(SCALEPROVS) -provider-latency $(SCALELAT) \
			-workers $(SCALEWORKERS) -tenants 4 -keys $(SCALEKEYS) -pl 0 \
			-mix $(SCALEMIX) -sizes $(SCALESIZES) \
			-duration $(SCALEDUR) -warmup $(SCALEWARM) -seed 7 -strict \
			-out cloudbench.scale$$d.json || exit 1; \
	done
	$(GO) run ./cmd/benchjson -load cloudbench.out.json \
		$(foreach d,$(SCALEDISTS),-scaling cloudbench.scale$(d).json) \
		-out $(BENCHOUT) < /dev/null
	@rm -f cloudbench.out.json cloudbench.scale*.json

# CI smoke: a few seconds of mixed load against the in-process fleet;
# strict mode fails the target on any op error.
bench-loadsmoke:
	$(GO) run ./cmd/cloudbench -local-providers 5 -workers 4 -tenants 2 -keys 8 \
		-duration 3s -warmup 500ms -strict -out /dev/null

# Bounded-memory regression gate for the streaming data plane: pushes a
# 256 MiB object (128× the in-flight window) through UploadStream and
# GetFileTo over disk-backed providers and fails if peak heap growth is
# file-bounded instead of window-bounded.
memcheck:
	MEMCHECK=1 $(GO) test ./internal/core -count=1 -run 'TestStreamBoundedMemory' -v

# Tier-2 gate: seeded fault-schedule simulation against the invariant
# oracle (internal/simcheck). Every failure prints a one-line repro:
#   go test ./internal/simcheck -run 'TestSimCheck$' -seed=N -ops=M
simcheck:
	$(GO) test ./internal/simcheck -count=1 -seeds=$(SIMCHECK_SEEDS) -ops=$(SIMCHECK_OPS)

# The CI variant: fewer seeds under the race detector.
simcheck-short:
	$(GO) test -race ./internal/simcheck -count=1 -short

# Crash-restart durability sweep: periodically kill the distributor
# without warning, recover from its WAL, and hold every oracle invariant
# against the recovered state. Failures print a crash-restart repro:
#   go test ./internal/simcheck -run 'TestSimCheckCrashRestart' -seed=N -ops=M
walcheck:
	$(GO) test ./internal/simcheck -count=1 -run 'TestSimCheckCrashRestart|TestSimCheckCatchesLostCommit' -seeds=$(SIMCHECK_SEEDS) -ops=$(SIMCHECK_OPS)

# The CI variant: fewer seeds under the race detector.
walcheck-race:
	$(GO) test -race ./internal/simcheck -count=1 -short -run 'TestSimCheckCrashRestart|TestSimCheckCatchesLostCommit'

# Sharded-namespace fault sweep: the same simulator over 3-4 shards
# behind the production ring, each a primary and a WAL follower, under
# follower partitions, primary outages and primary crash-restarts. Every
# checkpoint runs the full oracle per shard plus the replication and
# isolation checks. Failures print a repro:
#   go test ./internal/simcheck -run 'TestSimCheckSharded' -seed=N -ops=M
shardcheck:
	$(GO) test ./internal/simcheck -count=1 -run 'TestSimCheckSharded' -seeds=$(SIMCHECK_SEEDS) -ops=$(SIMCHECK_OPS)

# The CI variant: fewer seeds under the race detector.
shardcheck-race:
	$(GO) test -race ./internal/simcheck -count=1 -short -run 'TestSimCheckSharded'

# The trace hash of every simcheck run, seeds 1-8 of the single, the
# crash-restart and the sharded sweep, one "sweep seed hash" line each.
# A change meant to keep behaviour identical prints the same lines at
# both commits: run it in each tree and diff the two outputs. It fails
# when a run fails or prints no hash. A report, not a gate: make check
# leaves it out.
trace-hashes:
	@$(GO) test ./internal/simcheck -count=1 -json -seeds=8 \
		-run 'TestSimCheck$$|TestSimCheckCrashRestart$$|TestSimCheckSharded$$' \
		| grep -o '"Test":"[^"/]*/seed=[0-9]*","Output":"[^"]*trace=[0-9a-f]*' \
		| sed -E 's/^"Test":"([^"/]*)\/seed=([0-9]+)".*trace=([0-9a-f]+)$$/\1 \2 \3/' \
		| awk '{ print } END { if (NR != 24) { print "trace-hashes: " NR " of 24 runs passed" > "/dev/stderr"; exit 1 } }'

# Adversary-in-the-loop gate (internal/minecheck): stands up the real
# loopback deployment per seed, drives tenant traffic, and mounts the
# mining attacks (regression, clustering, association rules, NB/kNN)
# from malicious-provider vantage points — blobs, request timing, shard
# placement. Defended cells (PL>=2 + mislead) must score below the
# stored thresholds; the undefended control must leak, proving the
# attacks have teeth. Failures print a one-line repro:
#   go test ./internal/minecheck -run 'TestMineCheck$' -seed=N
minecheck:
	$(GO) test ./internal/minecheck -count=1 -seeds=$(MINECHECK_SEEDS)

# The CI variant: fewer seeds under the race detector (also covers
# internal/attack and internal/mining through the campaign paths).
minecheck-race:
	$(GO) test -race ./internal/minecheck ./internal/attack ./internal/mining -count=1 -short

# Full privacy-vs-performance frontier: 128 configuration cells swept by
# cmd/minecheck, embedded into $(BENCHOUT) as the "frontier" record.
minebench:
	$(GO) run ./cmd/minecheck -seed 1 -out minecheck.frontier.json -table
	$(GO) run ./cmd/benchjson -frontier minecheck.frontier.json -out $(BENCHOUT) < /dev/null
	@rm -f minecheck.frontier.json

# Where a defended put's time goes: the in-process twin of the 4 MiB PL3
# RAID-6 mislead upload (no HTTP, so the distributor's own CPU is all
# there is) under the CPU profiler, then the cumulative top of the
# upload's samples. A report, not a gate: make check leaves it out.
PROFILETIME ?= 60x
profile-put:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench 'BenchmarkUploadLoopbackFleet/4MiB-PL3-RAID6-mislead-inproc$$' \
		-benchtime $(PROFILETIME) -cpuprofile "$$tmp/cpu.prof" -o "$$tmp/transport.test" ./internal/transport && \
	$(GO) tool pprof -top -cum "$$tmp/transport.test" "$$tmp/cpu.prof" | head -n 60

# Its twin for the read side: a 4 MiB PL3 RAID-6 mislead GetFile over six
# HTTP providers (BenchmarkGetFileDefended), so the provider's multi-get
# handler is in the profile beside the distributor's strip and checks.
profile-get:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench 'BenchmarkGetFileDefended$$' \
		-benchtime $(PROFILETIME) -cpuprofile "$$tmp/cpu.prof" -o "$$tmp/core.test" ./internal/core && \
	$(GO) tool pprof -top -cum "$$tmp/core.test" "$$tmp/cpu.prof" | head -n 60

# And the streamed read's: a 32 MiB PL0 RAID-5 GetFileTo over six HTTP
# providers (BenchmarkGetFileToLoopback), the fetch workers, the pooled
# get bodies and the provider's get handler in one profile.
profile-stream-get:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench 'BenchmarkGetFileToLoopback$$' \
		-benchtime $(PROFILETIME) -cpuprofile "$$tmp/cpu.prof" -o "$$tmp/transport.test" ./internal/transport && \
	$(GO) tool pprof -top -cum "$$tmp/transport.test" "$$tmp/cpu.prof" | head -n 60

# Its write side: a 32 MiB PL0 RAID-5 UploadStream into six HTTP providers
# (BenchmarkUploadStreamLoopback), the put workers, the provider puts on
# the pooled transport and the provider's put handler in one profile.
profile-stream-put:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench 'BenchmarkUploadStreamLoopback$$' \
		-benchtime $(PROFILETIME) -cpuprofile "$$tmp/cpu.prof" -o "$$tmp/transport.test" ./internal/transport && \
	$(GO) tool pprof -top -cum "$$tmp/transport.test" "$$tmp/cpu.prof" | head -n 60

fmt:
	gofmt -l -w .
