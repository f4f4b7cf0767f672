#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments. From the repository root:
#
#   bash bench/run.sh --workload lbm-scalar --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare parent*.json -- change*.json
#
# The Go build cache, module path, toolchain config and temporary files stay
# under .bench_build/ too, so a run writes nothing outside the checkout. The
# build fails, and so does the run, when the repository's own packages are
# not beside this directory.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The second build drops the git revision stamp, for checkouts where git
# cannot describe the tree.
go -C "$root/bench" build -o "$out/esdbench" . ||
	go -C "$root/bench" build -buildvcs=false -o "$out/esdbench" .
# Not exec: the benchmark stops itself with SIGSTOP while it measures its
# speed reference, and a stopped direct child of an interactive shell would
# be reported as a stopped job. This shell, which has no job control, waits
# through the pauses.
"$out/esdbench" "$@"
