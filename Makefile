# Convenience targets for building, testing and reproducing the evaluation.

GO ?= go

.PHONY: all build test race vet overhead-check bench-ab bench-check figures examples serve-smoke cluster-smoke check check-migrate check-cluster fuzz-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Same suite under the race detector — what CI runs. A scrape publishes
# staged telemetry while the simulation runs — under the owner's lock
# when the owner is idle, or by asking the owner to publish — so the race
# detector is the gate for any Sink/Registry/publication change. A
# shard's state is reached from its worker and from callers that run
# inline on an idle shard, so the shard package runs ten times over. A
# router wave shares one pooled connection per node across its frames,
# and concurrent callers pass those connections through the pools, so
# the wave tests run ten times over too. So do the node's timing-bound
# tests: a request queued past RequestTimeout, and the idle poll and
# frame deadlines a connection arms lazily around drain and split frames.
# So do the device's wear tests: scrapes read wear under the health lock
# while the simulation thread moves a line's count from its 16-bit slot
# to the side map. So do the scrape tests: a publication reads the
# device's, crypto engine's, caches' and schemes' own counters under the
# owner lock, raced against every engine and System entry point.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/shard
	$(GO) test -race -count=10 -run Wave ./internal/cluster
	$(GO) test -race -count=10 -run 'Timeout|Drain|Split' ./internal/server
	$(GO) test -race -count=10 -run Wear ./internal/nvm
	$(GO) test -race -count=10 -run Scrape ./internal/server .

# Within-run telemetry overhead gate (TestTelemetryOverheadGate): three
# Systems — telemetry off, metrics, metrics plus the flight recorder —
# replay one write stream in paired blocks, and metrics+flight must cost
# at most 1.10x off per write, as a median over rounds. A timing gate:
# it builds only with the overhead tag, so `go test ./...` (where other
# packages' tests share the cores) never runs it, and it runs as its own
# CI step.
overhead-check:
	$(GO) test -tags overhead -run '^TestTelemetryOverheadGate$$' -count=1 -v .

# Full test log, as recorded in test_output.txt.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

# Interleaved A/B of BASE (a git revision) against the working tree, PAIRS
# pairs (scripts/bench_ab.sh): the end-to-end benchmark on one workload,
# on seeds SEED..., judged by `bench/run.sh compare` (a pair takes about a
# minute, so it is not a CI step); or the BENCH microbenchmarks of the
# package in PKG, judged by the same rule.
#   make bench-ab BASE=HEAD~1 WORKLOAD=namd-batch64
#   make bench-ab BASE=HEAD~1 BENCH='^BenchmarkEncodeWord$' PKG=./internal/ecc
PAIRS ?= 10
SEED ?= 101
bench-ab:
	BASE=$(BASE) WORKLOAD=$(WORKLOAD) BENCH='$(BENCH)' PKG=$(PKG) PAIRS=$(PAIRS) SEED=$(SEED) bash scripts/bench_ab.sh

# Vet and test the end-to-end benchmark in bench/. It is a nested module,
# so the root `go test ./...` never builds it, yet it compiles against the
# server and cluster APIs.
bench-check:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Regenerate every paper figure into results/ (the run recorded in
# EXPERIMENTS.md used exactly this invocation).
figures:
	$(GO) run ./cmd/figures -fig all -requests 150000 -warmup 100000 -o results/

# End-to-end smoke of the serving stack: boot esdserve, drive 1k
# requests through esdload over HTTP and TCP, assert a clean drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of the cluster stack: 3 esdserve nodes + esdrouter
# (R=2), load through the router, SIGTERM one node, assert zero
# client-visible errors and a truthful /statusz ring section.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Differential checker: every scheme (the canonical four plus esd+caram),
# single + sharded {1,8}, each shard count with queued writes (run by the
# shard worker) and inline writes (run by the caller): 25 engines against
# the map oracle, with invariant audits on every engine, shard by shard
# on the sharded ones. Half the write runs and half the read runs go
# through the batched APIs. Any violation prints a replay command
# (esdcheck -seed N -upto M, plus the flags that shaped the op stream)
# that reproduces it exactly.
check:
	$(GO) run ./cmd/esdcheck -ops 200000 -seed 1 -shards 1,8 -batch 0.5

# Same matrix and audits under the migration-heavy generator: a
# phase-shifting hot set that churns the hybrid tier's
# promotion/demotion/writeback paths against a deliberately undersized
# DRAM buffer.
check-migrate:
	$(GO) run ./cmd/esdcheck -ops 200000 -seed 1 -shards 1,8 -gen migrate

# Routed differential checker: oracle vs the consistent-hash router over
# 3 real TCP nodes, with a reshard cutover at 40% and a node kill at 70%
# of the stream, with half the write and read runs sent as batch frames.
# The first pass runs at R=2; the second at R=3, where a write's wave
# reaches all 3 nodes, and up to 4 while the reshard dual-writes — the
# only run where a wave is wider than 2. After the final sweep every
# live node's engine is audited. A violation prints its replay command
# (esdcheck -seed N -upto M -cluster=true, with the pass's -ops, -batch
# and -replication).
check-cluster:
	$(GO) run ./cmd/esdcheck -cluster -ops 200000 -seed 1 -batch 0.5
	$(GO) run ./cmd/esdcheck -cluster -ops 200000 -seed 1 -batch 0.5 -replication 3

# 30 seconds per fuzz target — catches crashes, hangs and corpus
# regressions, not deep state-space coverage. FUZZTIME=5s for quick runs.
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/endurance
	$(GO) run ./examples/taillatency
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/observability
	$(GO) run ./examples/flightrecorder

clean:
	rm -rf results/ test_output.txt
