#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay
# under .bench_build/ in the repository root. Outside a full checkout
# (no ../go.mod for the replace directive) the build fails and the
# script exits non-zero before printing any result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
