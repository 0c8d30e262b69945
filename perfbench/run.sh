#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
# Everything the build writes (binary, Go build and module caches, temporary
# files) goes under .bench_build in the current directory. The benchmark
# needs no module beyond the repository itself, so nothing is fetched.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
