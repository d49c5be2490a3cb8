#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-fig9 --seed 1 --seconds 20 --trace 0
#
# Build cache, temporary files, Go's telemetry counters and the binary all
# stay under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
