#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload tps_flow --seed 1 --seconds 35 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$bench/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$bench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
