#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the load generator inside the
# checkout and hands it the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the Go toolchain and the benchmark write — build cache,
# temporaries, binaries, server logs and data directories — is kept under
# .bench_build/ in the checkout, so a run reads and writes nothing outside
# it and needs no HOME.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
build="$repo/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$build/bin/lbsq-loadgen" ./cmd/lbsq-loadgen)
exec "$build/bin/lbsq-loadgen" -repo "$repo" "$@"
