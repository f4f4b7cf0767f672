#!/usr/bin/env bash
# Interleaved A/B run: a base revision against the working tree, on one
# workload of the end-to-end benchmark or on the microbenchmarks of one
# package. From the repository root:
#
#   BASE=<rev> WORKLOAD=namd-batch64 PAIRS=10 SEED=101 bash scripts/bench_ab.sh
#   BASE=<rev> BENCH='^BenchmarkEncodeWord$' PKG=./internal/ecc bash scripts/bench_ab.sh
#   make bench-ab BASE=<rev> WORKLOAD=namd-batch64
#   make bench-ab BASE=<rev> BENCH='^BenchmarkEncodeWord$' PKG=./internal/ecc
#
# BASE is extracted with `git archive` into .bench_build/base and removed
# when the script exits; the working tree is the change side. The archive
# writes nothing under .git, unlike a worktree. The script runs PAIRS
# pairs, at least 10, and which side runs first alternates from pair to
# pair, so a clock that drifts over the run reaches both sides alike.
#
# With WORKLOAD, pair i runs both sides on seed SEED+i at
# `--seconds 20 --trace 0`. The result files go to
# .bench_build/ab/WORKLOAD-{base,change}-SEED.json (a rerun replaces only
# its own workload's files), and the script ends with
# `bash bench/run.sh compare base... -- change...`, whose verdict table it
# prints and whose exit status it returns. A pair takes about a minute.
# Both sides' result files carry the enclosing checkout's revision stamp,
# because the extracted base has no .git of its own; the file name tells
# the sides apart. It refuses to run when bench/ or BENCHMARK.json differ
# between the two trees: both sides must run the same benchmark.
#
# With BENCH (a -test.bench regexp) and PKG (a package directory), each
# tree's test binary for PKG is built once into .bench_build, with the
# environment bench/run.sh sets, and a pair runs both binaries in their
# package directories with `-test.run '^$' -test.bench "$BENCH"
# -test.benchmem -test.count 1 -test.timeout 10m` (go test's default
# timeout), each benchmark for its default time. The
# outputs go to .bench_build/ab/micro-{base,change}-I.txt. The script
# names PKG's _test.go files that differ between the trees (the sides then
# run different benchmark code), and prints for every benchmark and unit
# each side's median [q1, q3], the change's wins and the verdict of
# bench/compare.go's rule for a metric without a bound: "improved" when
# the change wins at least nine pairs in ten (ties count for neither) and
# its median beats the base's by more than the base's interquartile
# range, "regressed" for the mirror, "unresolved" when the medians differ
# by more than that range otherwise, and "unchanged" when they do not.
# Lower is better except for units ending in /s; quartiles are Python's
# statistics.quantiles, the method bench/stats.go reproduces.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
: "${BASE:?set BASE to the git revision to compare against}"
BENCH=${BENCH:-}
if [ -n "$BENCH" ]; then
	: "${PKG:?set PKG to the package directory that holds the BENCH benchmarks}"
else
	: "${WORKLOAD:?set WORKLOAD to a workload named in BENCHMARK.json, or BENCH and PKG}"
fi
PAIRS=${PAIRS:-10}
SEED=${SEED:-101}
if ((PAIRS < 10)); then
	echo "bench_ab: PAIRS=$PAIRS; a comparison needs at least 10 pairs" >&2
	exit 2
fi

base=$(git rev-parse --verify "$BASE^{commit}")
if [ -z "$BENCH" ] && { ! git diff --quiet "$base" -- bench BENCHMARK.json ||
	[ -n "$(git ls-files --others --exclude-standard -- bench)" ]; }; then
	echo "bench_ab: bench/ or BENCHMARK.json differ between $BASE and the working tree" >&2
	exit 2
fi

wt="$root/.bench_build/base"
out="$root/.bench_build/ab"
cleanup() { rm -rf "$wt"; }
cleanup # a tree left by an interrupted run
trap cleanup EXIT
mkdir -p "$wt" "$out"
git archive "$base" | tar -x -C "$wt"

if [ -n "$BENCH" ]; then
	tests=":(glob)${PKG#./}/*_test.go"
	for f in $(git diff --name-only "$base" -- "$tests") $(git ls-files --others --exclude-standard -- "$tests"); do
		echo "bench_ab: $f differs between $BASE and the working tree; the sides run different benchmark code" >&2
	done
	rm -f "$out"/micro-*
	mkdir -p "$root/.bench_build/tmp"
	for side in base change; do
		dir=$root
		[ "$side" = base ] && dir=$wt
		(cd "$dir" && GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp" \
			GOPATH="$root/.bench_build/gopath" XDG_CONFIG_HOME="$root/.bench_build/config" \
			GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go test -c -o "$root/.bench_build/micro-$side.test" "$PKG")
	done
else
	rm -f "$out/$WORKLOAD"-*
fi

base_files=()
change_files=()
# run SIDE I: pair I's run of the base tree or the working tree.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$wt
	echo "bench_ab: $1 pair $2" >&2
	if [ -n "$BENCH" ]; then
		(cd "$dir/$PKG" && "$root/.bench_build/micro-$1.test" -test.run '^$' -test.bench "$BENCH" \
			-test.benchmem -test.count 1 -test.timeout 10m) >"$out/micro-$1-$2.txt"
	else
		bash "$dir/bench/run.sh" --workload "$WORKLOAD" --seed $((SEED + $2)) --seconds 20 --trace 0 \
			--out "$out/$WORKLOAD-$1-$((SEED + $2)).json" >"$out/$WORKLOAD-$1-$((SEED + $2)).log"
	fi
}

for ((i = 0; i < PAIRS; i++)); do
	if ((i % 2 == 0)); then
		run base "$i"
		run change "$i"
	else
		run change "$i"
		run base "$i"
	fi
	if [ -n "$BENCH" ]; then
		base_files+=("$out/micro-base-$i.txt")
		change_files+=("$out/micro-change-$i.txt")
	else
		base_files+=("$out/$WORKLOAD-base-$((SEED + i)).json")
		change_files+=("$out/$WORKLOAD-change-$((SEED + i)).json")
	fi
done
if [ -z "$BENCH" ]; then
	bash bench/run.sh compare "${base_files[@]}" -- "${change_files[@]}"
	exit
fi
python3 - "${base_files[@]}" -- "${change_files[@]}" <<'EOF'
import statistics, sys

args = sys.argv[1:]
sep = args.index("--")

def parse(path):
    # {(benchmark, unit): value} from one run's `go test -bench` output.
    vals = {}
    for line in open(path):
        f = line.split()
        if len(f) >= 4 and f[0].startswith("Benchmark") and f[1].isdigit():
            for v, unit in zip(f[2::2], f[3::2]):
                vals[f[0], unit] = float(v)
    return vals

base, change = [parse(p) for p in args[:sep]], [parse(p) for p in args[sep + 1:]]

def summary(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return statistics.median(xs), q1, q3

rows = [("benchmark", "unit", "result", "base median [q1, q3]", "change median [q1, q3]", "wins")]
for name, unit in base[0]:
    if not all((name, unit) in run for run in base + change):
        continue
    b = [run[name, unit] for run in base]
    c = [run[name, unit] for run in change]
    sign = 1 if unit.endswith("/s") else -1  # sign * (x - y) > 0: x reads better than y
    n = len(b)
    wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
    losses = sum(sign * (x - y) > 0 for x, y in zip(b, c))
    bs, cs = summary(b), summary(c)
    iqr, gap = bs[2] - bs[1], sign * (cs[0] - bs[0])  # gap > 0 is an improvement
    if wins * 10 >= 9 * n and gap > iqr:
        result = "improved"
    elif losses * 10 >= 9 * n and -gap > iqr:
        result = "regressed"
    elif abs(gap) > iqr:
        result = "unresolved"
    else:
        result = "unchanged"
    rows.append((name, unit, result, "%.6g [%.6g, %.6g]" % bs, "%.6g [%.6g, %.6g]" % cs, "%d/%d" % (wins, n)))
if len(rows) == 1:
    sys.exit("bench_ab: no benchmark matched BENCH in every run")
widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
for r in rows:
    print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
EOF
