#!/usr/bin/env bash
# Interleaved A/B run of the end-to-end benchmark: a base revision against
# the working tree, on one workload. From the repository root:
#
#   BASE=<rev> WORKLOAD=namd-batch64 PAIRS=10 SEED=101 bash scripts/bench_ab.sh
#   make bench-ab BASE=<rev> WORKLOAD=namd-batch64
#
# BASE is extracted with `git archive` into .bench_build/base and removed
# when the script exits; the working tree is the change side. The archive
# writes nothing under .git, unlike a worktree. Pair i runs both sides on
# seed SEED+i at `--seconds 20 --trace 0`, and which side runs first
# alternates from pair to pair, so a clock that drifts over the run
# reaches both sides alike. The result files go to
# .bench_build/ab/WORKLOAD-{base,change}-SEED.json (a rerun replaces only
# its own workload's files), and the script ends with
# `bash bench/run.sh compare base... -- change...`, whose verdict table it
# prints and whose exit status it returns. A pair takes about a minute.
# Both sides' result files carry the enclosing checkout's revision stamp,
# because the extracted base has no .git of its own; the file name tells
# the sides apart.
#
# It refuses to run when bench/ or BENCHMARK.json differ between the two
# trees: both sides must run the same benchmark.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
: "${BASE:?set BASE to the git revision to compare against}"
: "${WORKLOAD:?set WORKLOAD to a workload named in BENCHMARK.json}"
PAIRS=${PAIRS:-10}
SEED=${SEED:-101}

base=$(git rev-parse --verify "$BASE^{commit}")
if ! git diff --quiet "$base" -- bench BENCHMARK.json ||
	[ -n "$(git ls-files --others --exclude-standard -- bench)" ]; then
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
rm -f "$out/$WORKLOAD"-*

# run SIDE SEED: one benchmark run of the base tree or the working tree.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$wt
	echo "bench_ab: $1 seed $2" >&2
	bash "$dir/bench/run.sh" --workload "$WORKLOAD" --seed "$2" --seconds 20 --trace 0 \
		--out "$out/$WORKLOAD-$1-$2.json" >"$out/$WORKLOAD-$1-$2.log"
}

base_files=()
change_files=()
for ((i = 0; i < PAIRS; i++)); do
	seed=$((SEED + i))
	if ((i % 2 == 0)); then
		run base "$seed"
		run change "$seed"
	else
		run change "$seed"
		run base "$seed"
	fi
	base_files+=("$out/$WORKLOAD-base-$seed.json")
	change_files+=("$out/$WORKLOAD-change-$seed.json")
done
bash bench/run.sh compare "${base_files[@]}" -- "${change_files[@]}"
