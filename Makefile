# Standard development entry points. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build fmt vet test bench-module bench race fuzz guard chaos chaos-tcp tcp serve-test forest cover experiments experiments-check examples clean

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
# worker processes), the engine driving them, the compiled predictor (table
# prediction fans out over a worker pool), and the inference server
# (micro-batcher + sharded model cache).
race:
	$(GO) test -race ./internal/comm ./internal/comm/tcptransport ./internal/scalparc \
		./internal/infer ./internal/serve/... ./cmd/serve

# The inference server's full suite: soak/race tests (N clients x M
# models, bit-equal to the walker oracle), hot-swap drain differential,
# the batcher's property and backlog tests, every benchmark compiled and
# run once, and the FuzzServeRequest and FuzzDecodeJSONRows smokes.
serve-test:
	$(GO) test -race -count=1 ./internal/serve/... ./cmd/serve
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/serve
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=$(FUZZTIME) -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzDecodeJSONRows -fuzztime=$(FUZZTIME) -run='^$$' ./internal/serve

# Chaos suite under the race detector: crash-at-every-(phase,level)
# recovery sweeps, checkpoint round-trips, fault-injector and detection
# tests, and the CLI's end-to-end fault paths. Failing scalparc sweeps dump
# Chrome traces into CHAOS_ARTIFACT_DIR (CI uploads them as artifacts).
CHAOS_ARTIFACT_DIR ?= chaos-traces
chaos:
	CHAOS_ARTIFACT_DIR="$(CHAOS_ARTIFACT_DIR)" $(GO) test -race \
		-run 'Fault|Crash|Checkpoint|Straggler|Corrupt|Recover|Schedule|Detection|Shrink|Truncat' \
		./internal/faults ./internal/comm ./internal/scalparc \
		./internal/nodetable ./internal/extmem ./classify ./cmd/scalparc
	$(GO) test -race -count=1 -run 'Crash|Shrink|Suspicion|Hung|Wire|Orphan' ./internal/comm/tcptransport
	$(MAKE) chaos-tcp

# Network chaos over real worker processes: the full sweep of the wire-only
# fault kinds (hang/delay/reset/truncate at phase boundaries, p in {2,4}), each run
# required to terminate within the detection bound and produce the
# byte-identical tree of a fault-free run, plus the coordinator's
# respawn-from-checkpoint path. No -race: these launch OS processes.
chaos-tcp:
	CHAOS_TCP=1 CHAOS_ARTIFACT_DIR="$(CHAOS_ARTIFACT_DIR)" $(GO) test -count=1 \
		-timeout 10m -run 'TestTCPChaos|TestTCPOrphanRespawn' ./cmd/scalparc

# The TCP transport backend: unit tests, the sim-vs-tcp differential
# (byte-identical trees and modeled runtimes at p in {2,4}), and the
# real-process crash-recovery sweep. The CLI tests spawn worker OS
# processes, so this target runs without -race (make race covers the
# transport's in-process meshes and the simulated side).
tcp:
	$(GO) test -count=1 ./internal/comm/tcptransport
	$(GO) test -count=1 -run 'TestTCP' ./cmd/scalparc

# Short fuzzing passes over the CSV reader, the gini scan kernel, the
# compiled-vs-walker prediction differential, the model decoder, the
# server's request handling and its JSON row decoder (against the frozen
# reflective one), the TCP frame decoder, the checkpoint frame decoders and
# the -faults spec parser. CI runs this target; a test fails when a Fuzz*
# function of the root module is missing from it. The model and checkpoint
# frame decoders cap minimization: shrinking one interesting input
# otherwise takes the default 60s, i.e. the whole pass.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) -run='^$$' ./internal/dataset
	$(GO) test -fuzz=FuzzSplitScan -fuzztime=$(FUZZTIME) -run='^$$' ./internal/gini
	$(GO) test -fuzz=FuzzPredict -fuzztime=$(FUZZTIME) -run='^$$' ./internal/infer
	$(GO) test -fuzz=FuzzCompileForest -fuzztime=$(FUZZTIME) -run='^$$' ./internal/infer
	$(GO) test -fuzz=FuzzDecodeModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/tree
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=$(FUZZTIME) -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzDecodeJSONRows -fuzztime=$(FUZZTIME) -run='^$$' ./internal/serve
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) -run='^$$' ./internal/comm/tcptransport
	$(GO) test -fuzz=FuzzDecodeShared -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/scalparc
	$(GO) test -fuzz=FuzzDecodeFrag -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s -run='^$$' ./internal/scalparc
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run='^$$' ./internal/faults

# Benchmark-regression guards, all CI steps; exit non-zero on regression.
# A guard is a gate that needs a clock — exact invariants (tree identity,
# FindSplitI ops and bytes, accuracy ordering, chaos loss bounds) are
# package tests under `go test ./...`: GUARD-HOTPATH (gini kernel >= 2x the
# frozen naive scan; induction allocs/op vs the archived
# BENCH_induction.json), GUARD-PREDICT (compiled batch inference >= 4x the
# frozen pre-engine walk with bit-identical labels), and GUARD-SERVE (the
# HTTP serving path: bit-identical labels over the wire, whole requests per
# flush, a p99 disaster line; failing runs dump latency histograms into
# SERVE_ARTIFACT_DIR for CI to upload) — see EXPERIMENTS.md.
SERVE_ARTIFACT_DIR ?= serve-latency
guard:
	$(GO) run ./cmd/benchrunner -exp hotpathguard
	$(GO) run ./cmd/benchrunner -exp predictguard
	SERVE_ARTIFACT_DIR="$(SERVE_ARTIFACT_DIR)" $(GO) run ./cmd/benchrunner -exp serveguard

# Forest suite: the scalparc forest chaos/determinism tests, the compiled
# batch-vote differentials (including the CompileForest fuzz corpus run as
# unit cases) and the CLI -forest end-to-end tests. EXP-FOREST's table is
# part of `make experiments-check`.
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
