#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the benchmark builds cmd/esrd
# the same way. Everything the build and the run write - Go's build cache,
# temporary files, its module and configuration directories, the binaries,
# esrd's data directories - stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload poisson-latency --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/work"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
cd "$root/bench"
go build -o "$build/bench" .
exec "$build/bench" --workdir "$build/work" "$@"
