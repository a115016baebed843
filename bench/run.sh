#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given, from the repository root:
#
#   bash bench/run.sh --workload failover_sweep --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary and Go build cache) goes under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C bench -o "$build/wackbench" .
exec "$build/wackbench" "$@"
