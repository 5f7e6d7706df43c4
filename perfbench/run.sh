#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload backbone-churn --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the binary, and
# each run's result and span files (.bench_build/results/). The build
# fails, and the script exits non-zero without printing a result, when
# the repository's sources are not beside perfbench/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
