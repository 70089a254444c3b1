# Tier-1 gate: everything `make check` runs must stay green.
#
#   make check            vet + fmt-check + routes-lint + tables-lint + placement-lint + snapshot-lint + delete-lint + replication-lint + build + race tests + fuzz seed corpora
#   make fmt-check        gofmt -l over the tree is empty (make fmt rewrites)
#   make routes-lint      distributor /v1/ paths appear in transport/routes.go only; one upload handler
#   make tables-lint      the distributor's tables are written in core/apply.go only
#   make placement-lint   which providers a blob avoids is decided in core/placement.go only
#   make snapshot-lint    a live stripe is copied by core's stripeRowsLocked only
#   make delete-lint      a provider blob is deleted by core's delete step (deleteBlobs) only
#   make replication-lint followers apply the primary's own WAL records, through core's Follow only
#   make loc              non-test Go code lines per package and in total
#   make reach            non-test internal/ functions that no binary links (report only)
#   make test             plain test run
#   make fuzz             short randomized fuzzing of the codec layers
#   FUZZTIME=30s make fuzz  longer fuzz budget
#   make loadbench        warp-class load benchmark + 1→2→4→8 shard scaling curve
#   make bench-loadsmoke  CI load smoke: short strict cloudbench run
#   make memcheck         bounded-memory streaming check (256 MiB object)
#   make simcheck         tier-2: deterministic fault-schedule simulation
#   SIMCHECK_SEEDS=64 SIMCHECK_OPS=600 make simcheck  bigger sweep
#   make walcheck         crash-restart recovery sweep (WAL durability)
#   make shardcheck       the same sweep over a sharded namespace with WAL followers
#   make minecheck        adversary-in-the-loop mining campaigns + gate
#   MINECHECK_SEEDS=64 make minecheck  bigger sweep
#   make minebench        full 128-cell privacy-vs-performance frontier
#   make profile-put      where a defended 4 MiB put's CPU goes (pprof -top -cum)

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
# Each in-process provider serializes its ops behind a 12 ms service
# time, so a shard's fleet is a bank of single-server queues and
# aggregate throughput is queueing-bound, not CPU-bound — the curve
# measures namespace sharding, not host parallelism. 24 closed-loop
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

.PHONY: check build vet fmt-check routes-lint tables-lint placement-lint snapshot-lint delete-lint replication-lint loc reach test race fuzz fmt bench bench-smoke loadbench bench-loadsmoke memcheck simcheck simcheck-short walcheck walcheck-race shardcheck shardcheck-race minecheck minecheck-race minebench profile-put

check: vet fmt-check routes-lint tables-lint placement-lint snapshot-lint delete-lint replication-lint build race fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt's output is the tree's only accepted formatting; nothing else in
# check or CI looks at it (staticcheck does not). .bench_build/ is the
# benchmark's build cache, module sources included, not ours to format.
fmt-check:
	@files=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$files" ]; then \
		echo 'fmt-check: gofmt would rewrite (run make fmt):'; echo "$$files"; exit 1; \
	fi

# Each distributor operation is defined once, as a row of the route table
# in internal/transport/routes.go. A /v1/ path in any other non-test file
# of the package (outside comments) means an operation is being added in
# a second place. provider_*.go speak the provider wire, a different
# protocol, and are exempt. Uploads have one route as well: in the
# package's non-test files core's UploadStream has exactly one caller, the
# upload handler, and nothing calls core's buffered Upload (the package
# names the distributor d wherever it holds one) — a second upload
# handler, buffered or streamed, fails here instead of in review.
routes-lint:
	@if grep -n '/v1/' $$(ls internal/transport/*.go | grep -v -e '_test\.go$$' -e '/routes\.go$$' -e '/provider_[a-z]*\.go$$') \
		| grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//'; then \
		echo 'routes-lint: distributor paths belong in internal/transport/routes.go'; exit 1; \
	fi
	@n=$$(grep -h 'UploadStream(' $$(ls internal/transport/*.go | grep -v '_test\.go$$') \
		| grep -v -E '^[[:space:]]*//' | grep -c -v '^func '); \
	if [ "$$n" != 1 ]; then \
		echo "routes-lint: UploadStream( has $$n callers in internal/transport, want 1 (the upload handler)"; exit 1; \
	fi
	@if grep -n -E '\bd\.Upload\(' $$(ls internal/transport/*.go | grep -v '_test\.go$$') \
		| grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//'; then \
		echo 'routes-lint: the upload route streams (core.UploadStream); nothing in internal/transport calls core.Upload'; exit 1; \
	fi

# The distributor's tables have one writer, internal/core/apply.go: a
# commit, a replicated record and a recovery all change them by applying
# the same record there. So in the package's non-test files
# logAppendLocked has exactly one caller (commitLocked), and no other file
# assigns a provider count, a table row or a whole table — a second
# writer fails here instead of in review.
tables-lint:
	@n=$$(grep -h 'logAppendLocked(' $$(ls internal/core/*.go | grep -v '_test\.go$$') \
		| grep -v -E '^[[:space:]]*//' | grep -c -v '^func '); \
	if [ "$$n" != 1 ]; then \
		echo "tables-lint: logAppendLocked( has $$n callers in internal/core, want 1 (commitLocked)"; exit 1; \
	fi
	@if grep -n -E 'd\.(provCount|clients|chunks|stripes)(\[[^]]*\][A-Za-z0-9_.]*)? *(=[^=]|\+=|-=|\+\+|--)' \
		$$(ls internal/core/*.go | grep -v -e '_test\.go$$' -e '/apply\.go$$') \
		| grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//'; then \
		echo 'tables-lint: the tables are written in internal/core/apply.go only'; exit 1; \
	fi

# The dispersal policy has one home, internal/core/placement.go: avoid
# computes the providers a blob may not share and homeLocked is the one
# single-blob placer, for first placements, failovers and relocations
# alike. So no other non-test file of the package (outside comments)
# calls avoid or ranks providers itself, and rehomePut, the
# write-failover loop, has one caller, shipShard — a second exclusion set
# or ship path fails here instead of in review.
placement-lint:
	@if grep -n -E '\b(avoid|preferLocked|healthyEligible)\(' $$(ls internal/core/*.go | grep -v -e '_test\.go$$' -e '/placement\.go$$') \
		| grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//'; then \
		echo 'placement-lint: exclusion sets and provider ranking belong in internal/core/placement.go'; exit 1; \
	fi
	@n=$$(grep -h 'rehomePut(' $$(ls internal/core/*.go | grep -v '_test\.go$$') \
		| grep -v -E '^[[:space:]]*//' | grep -c -v '^func '); \
	if [ "$$n" != 1 ]; then \
		echo "placement-lint: rehomePut( has $$n callers in internal/core, want 1 (shipShard)"; exit 1; \
	fi

# A stripe has one model outside the tables, internal/core's stripeRows,
# and one function copies a live stripe into it, stripeRowsLocked in
# reencode.go: reads, re-encodes, relocations and the scrub all work over
# that copy. Building or copying a []mirrorRef is the telltale sign of a
# second, private copy of a row, so outside reencode.go, upload.go (a new
# stripe's rows) and walcodec.go (decoding) no non-test file of the
# package does it (outside comments).
snapshot-lint:
	@if grep -n -E 'make\(\[\]mirrorRef|\[\]mirrorRef *[({]|Clone\([^)]*Mirrors' $$(ls internal/core/*.go \
		| grep -v -e '_test\.go$$' -e '/reencode\.go$$' -e '/upload\.go$$' -e '/walcodec\.go$$') \
		| grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//'; then \
		echo 'snapshot-lint: a live stripe is copied by stripeRowsLocked (internal/core/reencode.go) only'; exit 1; \
	fi

# Every blob the distributor discards leaves through one delete step,
# deleteBlobs in internal/core/remove.go: it groups a provider's keys into
# batched calls and takes one health sample per call. So no non-test file
# of the package (outside comments) calls a provider's Delete, and
# DeleteMany has exactly one caller, the step's bulkDelete — a second
# delete path fails here instead of in review.
delete-lint:
	@if grep -n -E '\.Delete\(' $$(ls internal/core/*.go | grep -v '_test\.go$$') \
		| grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//'; then \
		echo 'delete-lint: provider blobs are deleted by deleteBlobs (internal/core/remove.go) only'; exit 1; \
	fi
	@n=$$(grep -h 'DeleteMany(' $$(ls internal/core/*.go | grep -v '_test\.go$$') \
		| grep -v -E '^[[:space:]]*//' | grep -c -v '^func '); \
	if [ "$$n" != 1 ]; then \
		echo "delete-lint: DeleteMany( has $$n callers in internal/core, want 1 (bulkDelete)"; exit 1; \
	fi

# Replication has one log, the primary's WAL, and one pull function,
# internal/core's Follow: a follower reads the primary's records with
# wal.Log.Since and applies each with applyReplicated. So in the package's
# non-test files applyReplicated has exactly one caller (Follow), nothing
# names a commit hook (a second, pushed copy of the records), and no
# non-test file anywhere names core.Cluster, the in-memory log this
# replaced — a second replication path fails here instead of in review.
replication-lint:
	@n=$$(grep -h 'applyReplicated(' $$(ls internal/core/*.go | grep -v '_test\.go$$') \
		| grep -v -E '^[[:space:]]*//' | grep -c -v '^func '); \
	if [ "$$n" != 1 ]; then \
		echo "replication-lint: applyReplicated( has $$n callers in internal/core, want 1 (Follow)"; exit 1; \
	fi
	@if grep -n 'commitHook' $$(ls internal/core/*.go | grep -v '_test\.go$$'); then \
		echo 'replication-lint: followers read the primary'"'"'s WAL (Follow); no commit hook feeds them'; exit 1; \
	fi
	@if grep -rn --include='*.go' -E 'core\.Cluster([^A-Za-z0-9_]|$$)' . | grep -v -e '_test\.go:' -e '^\./\.bench_build/'; then \
		echo 'replication-lint: core.Cluster is gone; a follower runs core.Distributor.Follow'; exit 1; \
	fi

# Non-test Go lines that are neither blank nor comment-only, per package
# and in total — the figure "net-negative" is measured in. A report, not
# a gate: run it at two commits and compare.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort | xargs awk ' \
		FNR == 1 { block = 0 } \
		{ line = $$0; sub(/^[ \t]+/, "", line) } \
		block { if (index(line, "*/")) block = 0; next } \
		line == "" || line ~ /^\/\// { next } \
		line ~ /^\/\*/ { block = !index(line, "*/"); next } \
		{ dir = FILENAME; sub(/\/[^\/]*$$/, "", dir); n[dir]++; total++ } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }'

# Non-test functions of internal/ that no binary links. Every main package
# (cmd/*, examples/*, benchmark) is built with inlining off, so a function
# reached only through an inlined call still shows up in the binary, and
# go tool nm lists each binary's text symbols; a declared function found in
# none of them runs only under its own tests. A report, not a gate: test
# harnesses, reference implementations a test compares against and core
# methods exported through privcloud.System appear too, and keeping them is
# a judgement for review. It builds every binary, so make check leaves it out.
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
			if (!(sym in linked)) { printf "%s:%d\t%s\n", FILENAME, FNR, sym; unlinked++ } \
		} \
		END { printf "reach: %d non-test internal/ functions linked into no binary (report only)\n", unlinked }' \
		nm="$$tmp/nm" "$$tmp/nm"

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
	$(GO) test -run '^$$' -fuzz FuzzMultiGetReply -fuzztime $(FUZZTIME) ./internal/transport

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

fmt:
	gofmt -l -w .
