#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload sim-sparse --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary stores and profiles) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/perfbench-runs" "$@"
