# Standard development entry points. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build fmt vet fma loc pair profile test bench-module bench race fuzz guard chaos chaos-tcp tcp serve-test forest cover experiments experiments-check examples clean

all: build fmt vet test bench-module

build:
	$(GO) build ./...

# gofmt gate over the root module (benchmark/ is its own, frozen module):
# any printed file name is a failure.
fmt:
	@out="$$(gofmt -l . | grep -v '^benchmark/')"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Float results must not depend on the CPU. arm64, ppc64le, s390x and
# riscv64 fuse x*y + z into one instruction with one rounding; amd64 never
# does. Cross-compile the program's packages and the examples for those
# four with the assembly listing (-gcflags=-S) and fail on any fused
# multiply-add, naming its file and line. The fix is an explicit
# conversion, float64(x*y) + z: it rounds the product, which the Go spec
# says prevents fusion, and on amd64 it changes no instruction. The build
# cache replays the listing, so a rerun takes seconds.
FMA_ARCHS = arm64 ppc64le s390x riscv64
FMA_PKGS = ./classify ./cmd/... ./internal/... ./examples/...
fma:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; found=0; \
	for arch in $(FMA_ARCHS); do \
		GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) 2> "$$tmp" || { cat "$$tmp"; exit 1; }; \
		sites="$$(grep -E '\bFN?M(ADD|SUB)D?\b' "$$tmp" | \
			sed -E 's|^.*\(([^)]*\.go:[0-9]+)\)[[:space:]]+([A-Z]+).*$$|\1: \2|; s|^$(CURDIR)/||' | sort -u)"; \
		if [ -n "$$sites" ]; then echo "$$sites" | sed "s/^/$$arch: /"; found=1; fi; \
	done; \
	if [ $$found = 1 ]; then echo "fused multiply-adds found: round the product explicitly, float64(x*y) + z"; exit 1; fi; \
	echo "no fused multiply-adds on $(FMA_ARCHS)"

# Non-test Go lines per package of the root module, then their total: the
# scorecard of a simplicity change. benchmark/ is its own module, so ./...
# leaves it out. With BASE=<git ref> (make loc BASE=HEAD~1), each package's
# count at that ref (from git archive into a temporary directory), this
# tree's count and the delta, then the totals.
LOC_LIST = $(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		if [ -n "$$files" ]; then printf '%7d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; fi; \
	done
loc:
ifeq ($(BASE),)
	@$(LOC_LIST) | awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'
else
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/tree" && git archive "$(BASE)" | tar -x -C "$$tmp/tree" && \
	(cd "$$tmp/tree" && $(LOC_LIST)) > "$$tmp/base" && \
	$(LOC_LIST) | awk 'NR == FNR { base[$$2] = $$1; seen[$$2] = 1; next } { here[$$2] = $$1; seen[$$2] = 1 } \
		END { for (p in seen) printf "%7d  %7d  %+7d  %s\n", base[p], here[p], here[p] - base[p], p }' "$$tmp/base" - | \
	sort -k4 | awk '{ print; b += $$1; h += $$2 } END { printf "%7d  %7d  %+7d  total\n", b, h, h - b }'
endif

# Paired benchmark comparison of the working tree against a git ref, for a
# change too small for one before/after run to resolve:
#   make pair BASE=<ref> BENCH=<regexp> [PKG=<pkg>] [ROUNDS=N]
# e.g. make pair BASE=HEAD BENCH='^BenchmarkInductionDeep$'. It builds
# PKG's test binary (default: the root package) at BASE and in this tree
# and runs them ROUNDS times (default 10) in ABBA order with an A/A arm
# (BASE against itself) in every round; scripts/pair.sh describes the
# statistics. A median delta inside the A/A arm's spread prints
# "unresolved". Informational, like loc and profile.
PKG ?= .
ROUNDS ?= 10
pair:
	@if [ -z "$(BASE)" ] || [ -z "$(BENCH)" ]; then \
		echo "usage: make pair BASE=<ref> BENCH=<regexp> [PKG=<pkg>] [ROUNDS=N]"; exit 2; fi
	@GO="$(GO)" bash scripts/pair.sh "$(BASE)" '$(value BENCH)' "$(PKG)" "$(ROUNDS)"

# Host CPU profiles of BenchmarkInduction (one exact-split induction, Quest
# F2, 20k records, p=4), BenchmarkInductionDeep (one exact-split induction
# of train-deep-exact's shape: 5 % label noise, 60k records, p=2, unlimited
# depth), BenchmarkInductionBinned (one binned induction of the wide table,
# p=2) and internal/serve's BenchmarkHandler256 (one 256-row JSON prediction
# request through the handler, no socket): the profiles and test binaries
# go to .bench_build/, then each one's hottest functions print by flat and
# by cumulative time. One more BenchmarkInductionDeep run records every
# allocation (-memprofilerate=1, in its own run so the CPU profiles are
# untouched) and prints the top allocation sites by object count: the
# allocation-site map of host memory. Informational, like loc: a perf change
# shows its before/after rows.
profile:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench '^BenchmarkInduction$$' -benchtime=3s \
		-o .bench_build/repro.test -cpuprofile .bench_build/induction.cpu.pprof .
	$(GO) tool pprof -top -nodecount=20 .bench_build/repro.test .bench_build/induction.cpu.pprof
	$(GO) tool pprof -top -cum -nodecount=20 .bench_build/repro.test .bench_build/induction.cpu.pprof
	$(GO) test -run '^$$' -bench '^BenchmarkInductionDeep$$' -benchtime=3s \
		-o .bench_build/repro.test -cpuprofile .bench_build/deep.cpu.pprof .
	$(GO) tool pprof -top -nodecount=20 .bench_build/repro.test .bench_build/deep.cpu.pprof
	$(GO) tool pprof -top -cum -nodecount=20 .bench_build/repro.test .bench_build/deep.cpu.pprof
	$(GO) test -run '^$$' -bench '^BenchmarkInductionDeep$$' -benchtime=1x -memprofilerate=1 \
		-o .bench_build/repro.test -memprofile .bench_build/deep.mem.pprof .
	$(GO) tool pprof -top -sample_index=alloc_objects -nodecount=20 .bench_build/repro.test .bench_build/deep.mem.pprof
	$(GO) test -run '^$$' -bench '^BenchmarkInductionBinned$$' -benchtime=3s \
		-o .bench_build/repro.test -cpuprofile .bench_build/binned.cpu.pprof .
	$(GO) tool pprof -top -nodecount=20 .bench_build/repro.test .bench_build/binned.cpu.pprof
	$(GO) tool pprof -top -cum -nodecount=20 .bench_build/repro.test .bench_build/binned.cpu.pprof
	$(GO) test -run '^$$' -bench '^BenchmarkHandler256$$' -benchtime=3s \
		-o .bench_build/serve.test -cpuprofile .bench_build/serve.cpu.pprof ./internal/serve
	$(GO) tool pprof -top -nodecount=20 .bench_build/serve.test .bench_build/serve.cpu.pprof
	$(GO) tool pprof -top -cum -nodecount=20 .bench_build/serve.test .bench_build/serve.cpu.pprof

# benchmark/ is its own module (replace repro => ../): the root build
# never sees it, so vet and smoke-test it against this tree explicitly.
bench-module:
	$(GO) -C benchmark vet ./... && $(GO) -C benchmark test ./...

test:
	$(GO) test ./...

# One testing.B benchmark per experiment in DESIGN.md's index (repo
# root), plus the per-package micro-benchmarks (e.g. internal/comm).
# Nothing is recorded: wall-clock figures that are kept are benchmark/'s
# (see benchmark/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Race-detect the packages with real goroutine concurrency: the simulated
# machine (one goroutine per rank), the TCP transport (per-peer readers and
# the heartbeater beside each rank; its tests are in-process meshes, no
# worker processes), the engine driving them, the presort (its scratch is
# refilled while peers may still read what it sent), the compiled predictor
# (table prediction fans out over a worker pool), the inference server
# (micro-batcher + sharded model cache), and the public API over the
# simulated machine (classify: forests train worlds concurrently). CI runs
# this target.
race:
	$(GO) test -race ./internal/comm ./internal/comm/tcptransport ./internal/scalparc ./internal/psort \
		./internal/infer ./internal/serve/... ./cmd/serve ./classify

# The inference server's full suite: soak/race tests (N clients x M
# models, bit-equal to the walker oracle), hot-swap drain differential,
# the batcher's property and backlog tests, every benchmark compiled and
# run once, and the FuzzServeRequest and FuzzDecodeJSONRows smokes.
serve-test:
	$(GO) test -race -count=1 ./internal/serve/... ./cmd/serve
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/serve
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzDecodeJSONRows -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/serve

# Chaos suite under the race detector: crash-at-every-(phase,level)
# recovery sweeps, checkpoint round-trips, fault-injector and detection
# tests, the CLI's end-to-end fault paths, and the oracle matrix's faulted
# cells on both transports (TestOracleMatrix/{sim,tcp}/faulted). Failing
# scalparc cells dump Chrome traces into CHAOS_ARTIFACT_DIR (CI uploads
# them as artifacts).
CHAOS_ARTIFACT_DIR ?= chaos-traces
chaos:
	CHAOS_ARTIFACT_DIR="$(CHAOS_ARTIFACT_DIR)" $(GO) test -race \
		-run 'Fault|Crash|Checkpoint|Straggler|Corrupt|Recover|Schedule|Detection|Shrink|Truncat' \
		./internal/faults ./internal/comm ./internal/scalparc \
		./internal/nodetable ./internal/extmem ./classify ./cmd/scalparc
	CHAOS_ARTIFACT_DIR="$(CHAOS_ARTIFACT_DIR)" $(GO) test -race -count=1 -run 'TestOracleMatrix/.*/faulted' ./internal/scalparc
	$(GO) test -race -count=1 -run 'Crash|Shrink|Suspicion|Hung|Wire|Orphan' ./internal/comm/tcptransport
	$(MAKE) chaos-tcp

# Network chaos over real worker processes: the full sweep of the wire-only
# fault kinds (hang/delay/reset/truncate at phase boundaries, p in {2,4}), each run
# required to terminate within the detection bound and produce the
# byte-identical tree of a fault-free run, plus the coordinator's
# respawn-from-checkpoint path. Every case writes a -trace file; a failing
# one leaves it, with its output and tree, in CHAOS_ARTIFACT_DIR. No -race:
# these launch OS processes.
chaos-tcp:
	CHAOS_TCP=1 CHAOS_ARTIFACT_DIR="$(CHAOS_ARTIFACT_DIR)" $(GO) test -count=1 \
		-timeout 10m -run 'TestTCPChaos|TestTCPOrphanRespawn' ./cmd/scalparc

# The TCP transport backend: unit tests, the engine-level books
# differential (every rank's stats, peak, clock and trace in every
# process), the JSON form a rank's trace crosses the wire in, the oracle
# matrix's TCP cells (every mode's tree over an in-process mesh, fault-free,
# after a crash and across a torn link: TestOracleMatrix/tcp), the
# sim-vs-tcp CLI differential (byte-identical trees, modeled runtimes,
# phase tables and Chrome traces at p in {2,4}; TestTCPForest's forests at
# p in {2,3}), and the real-process
# crash-recovery runs. The CLI tests spawn worker OS processes, so this
# target runs without -race (make race covers the transport's in-process
# meshes and the simulated side).
tcp:
	$(GO) test -count=1 ./internal/comm/tcptransport
	$(GO) test -count=1 -run 'TestRankTraceJSON' ./internal/trace
	$(GO) test -count=1 -run 'TestOracleMatrix/tcp' ./internal/scalparc
	$(GO) test -count=1 -run 'TestTCP' ./cmd/scalparc

# Short fuzzing passes over the CSV reader, the gini scan kernel, the
# exact mode's segment scan (against the Candidate fold it replaced), the
# row store's branchless bin search (against histogram.BinOf), the
# presort's radix sort and merge (against the comparator sort), the
# histogram modes' cut selection (against sorting the whole column), the
# compiled-vs-walker prediction differential, the model decoder, the
# server's request handling and its JSON row decoder (against the frozen
# reflective one), the TCP frame decoder, the checkpoint frame decoder, a
# restore's routing of the table down a decoded frame's tree and the
# -faults spec parser. CI runs this target; a test fails when a Fuzz*
# function of the root module is missing from it. The bin search, the cut
# selection, the decoders and the server's fuzzers cap minimization:
# shrinking one interesting input otherwise takes the default 60s, i.e.
# the whole pass.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) -run='^$$' ./internal/dataset
	$(GO) test -fuzz=FuzzSplitScan -fuzztime=$(FUZZTIME) -run='^$$' ./internal/gini
	$(GO) test -fuzz=FuzzExactScan -fuzztime=$(FUZZTIME) -run='^$$' ./internal/scalparc
	$(GO) test -fuzz=FuzzTwoSymbolCounts -fuzztime=$(FUZZTIME) -run='^$$' ./internal/scalparc
	$(GO) test -fuzz=FuzzSearchCuts -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/scalparc
	$(GO) test -fuzz=FuzzSort -fuzztime=$(FUZZTIME) -run='^$$' ./internal/psort
	$(GO) test -fuzz=FuzzSelect -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/psort
	$(GO) test -fuzz=FuzzPredict -fuzztime=$(FUZZTIME) -run='^$$' ./internal/infer
	$(GO) test -fuzz=FuzzCompileForest -fuzztime=$(FUZZTIME) -run='^$$' ./internal/infer
	$(GO) test -fuzz=FuzzDecodeModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/tree
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzDecodeJSONRows -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) -run='^$$' ./internal/comm/tcptransport
	$(GO) test -fuzz=FuzzDecodeShared -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/scalparc
	$(GO) test -fuzz=FuzzRouteFrontier -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/scalparc
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run='^$$' ./internal/faults

# Benchmark-regression guards, one CI step; exit non-zero on regression.
# A guard is a gate that needs a clock, so it is a TestGuard* test beside
# the code it gates that skips unless GUARD=1: GUARD-HOTPATH's kernel gate
# (internal/gini: the incremental gini scan >= 2x the frozen naive scan),
# GUARD-PREDICT (internal/infer: bit-identical labels, then compiled batch
# inference >= 4x the frozen pre-engine walk) and GUARD-SERVE
# (internal/serve: bit-identical labels over HTTP, whole requests per
# flush, a p99 disaster line; a failing run dumps latency histograms into
# SERVE_ARTIFACT_DIR for CI to upload). -p 1 times one package at a time.
# Exact invariants, the induction's allocation count among them, are plain
# package tests under `go test ./...` — see EXPERIMENTS.md.
SERVE_ARTIFACT_DIR ?= $(CURDIR)/serve-latency
guard:
	GUARD=1 SERVE_ARTIFACT_DIR="$(SERVE_ARTIFACT_DIR)" $(GO) test -count=1 -p 1 -v -run '^TestGuard' \
		./internal/gini ./internal/infer ./internal/serve

# Forest suite: the scalparc forest chaos/determinism tests, the compiled
# batch-vote differentials (including the CompileForest fuzz corpus run as
# unit cases) and the CLI -forest end-to-end tests, TestTCPForest's worker
# processes included. EXP-FOREST's table is part of `make experiments-check`.
forest:
	$(GO) test -run 'Forest' ./internal/scalparc ./internal/infer ./classify ./cmd/scalparc ./internal/serve

cover:
	$(GO) test -cover ./...

# Regenerate the paper's evaluation at the default 1/16 scale
# (see EXPERIMENTS.md; use SCALE=1.0 for the full-size sweep).
SCALE ?= 0.0625
experiments:
	$(GO) run ./cmd/benchrunner -exp all -scale $(SCALE)

# experiments_output.txt archives, verbatim, the output of the experiments
# the registry marks Recorded (virtual clocks only: the same bytes on every
# host). Regenerate exactly that set and diff it against the file, so a
# change that moves a modeled figure has to re-record it
# (`go run ./cmd/benchrunner -exp recorded > experiments_output.txt`).
experiments-check:
	$(GO) run ./cmd/benchrunner -exp recorded | diff experiments_output.txt -

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/census
	$(GO) run ./examples/fraud
	$(GO) run ./examples/scaling
	$(GO) run ./examples/outofcore

clean:
	$(GO) clean ./...
