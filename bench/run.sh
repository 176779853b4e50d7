#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything the
# build writes (Go build cache, binary) stays in .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/cjdbc-bench" .
exec "$root/.bench_build/cjdbc-bench" "$@"
