#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off PPROF_TMPDIR="$build/tmp"
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
