#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Everything
# the build writes (Go's build cache included) stays under .bench_build/ in
# that checkout; the span files go to bench/out/. Arguments pass through:
#
#   bash bench/run.sh --workload replay-close --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# bench/ is a module of its own (repro/bench) that replaces `repro` with the
# checkout around it; without that checkout's go.mod the build fails here.
go build -C "$root/bench" -o "$build/bench" .

exec "$build/bench" -outdir "$root/bench/out" "$@"
