#!/usr/bin/env bash
# Builds the workload benchmark from source inside the checkout and runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dispute-mem --seed 1 --seconds 15 --trace 0
#
# The binary, Go's build cache and every scratch file stay under
# .bench_build/. GOMAXPROCS is the number of usable cores.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
GOMAXPROCS="$(nproc)" exec "$out/perfbench" "$@"
