#!/usr/bin/env sh
# Perf-regression harness: run the hot-path kernel micro-benchmarks and the
# sharded throughput benchmark, then convert the output into the
# machine-readable BENCH_<label>.json trajectory point via cmd/benchjson.
#
# Usage:
#   sh scripts/bench.sh                 # full run, writes BENCH_PR3.json
#   BENCH_LABEL=PR4 sh scripts/bench.sh # next trajectory point
#   BENCHTIME=1x sh scripts/bench.sh    # CI smoke: one iteration per benchmark
#   BENCHCOUNT=5 sh scripts/bench.sh    # 5 runs per benchmark; benchjson
#                                       # records the median (use for the
#                                       # committed trajectory points — a
#                                       # single run on a shared machine is
#                                       # noise-dominated)
set -eu

LABEL="${BENCH_LABEL:-PR3}"
BENCHTIME="${BENCHTIME:-1s}"
BENCHCOUNT="${BENCHCOUNT:-1}"
OUT="${BENCH_OUT:-BENCH_${LABEL}.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT INT TERM

# Kernel micro-benchmarks: the ECC codec, the CME engine, and the
# per-line fingerprinters that sit on both.
go test -run '^$' -bench '.' -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" \
  ./internal/ecc ./internal/crypto ./internal/fingerprint | tee "$TMP"

# System-level: single-threaded write path, the sharded engine's
# concurrent throughput (writes/s is the headline lines/sec metric), and
# its batched write and read paths over a resident 1 Mi-line footprint.
go test -run '^$' -bench 'BenchmarkSystemWrite|BenchmarkShardedThroughput|BenchmarkShardedBatchResident|BenchmarkStageTracingOverhead' \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee -a "$TMP"

# Cluster-level: a routed write through a real TCP backend, hop recording
# and trace propagation included (both are always on).
go test -run '^$' -bench 'BenchmarkRoutedWrite' \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" ./internal/cluster | tee -a "$TMP"

go run ./cmd/benchjson -label "$LABEL" -o "$OUT" "$TMP"
echo "bench: wrote $OUT"
