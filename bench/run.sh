#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh -workload replay-2d -seed 1 -trace 0
#   bash bench/run.sh -seed 1
#
# Everything the build and the run write stays under .bench_build at the
# root, including the Go build cache, so a fresh checkout builds from
# scratch and nothing outside the checkout is touched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
cd "$root/bench"
go build -o "$build/cycada-bench" .
cd "$root"
exec "$build/cycada-bench" "$@"
