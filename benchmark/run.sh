#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the
# checkout's sources into .bench_build/ — Go's build cache included, so
# nothing is read or written outside the checkout — and runs it with the
# arguments given (--workload, --seed, --seconds, --trace).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
