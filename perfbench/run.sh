#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# repository root: the Go build and module caches, the Go configuration
# directory, the binary, and the benchmark's work files and span dumps.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
mkdir -p "$build"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
