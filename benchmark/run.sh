#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# The driver calls this from the root of a checkout as
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under the checkout:
# the Go caches and the binary in .bench_build/, the rest in benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/muralbench" .
exec "$build/muralbench" "$@"
