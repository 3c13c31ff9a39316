#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root, as BENCHMARK.json's
# command does. Everything the build and the run write — Go's build
# cache and temporary files, the binary, span files, scratch data —
# stays under .bench_build in that directory.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
# The module has no dependencies outside the repository; never reach out.
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go build -C "$bench" -o "$build/tpbench" .
exec "$build/tpbench" -out "$build/bench-out" "$@"
