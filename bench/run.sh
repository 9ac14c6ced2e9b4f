#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it: the command
# BENCHMARK.json names. The Go build cache and temporary files are kept
# under .bench_build so that nothing outside the checkout is written.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/em-bench" ./bench
exec "$build/em-bench" "$@"
