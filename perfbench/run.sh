#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <cold-10k|restart-10k|edit-10k|rename-10k> \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root; the program's sources are not here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/go/cache" "$build/go/tmp" "$build/go/path" "$build/go/config"
export GOCACHE="$build/go/cache" GOTMPDIR="$build/go/tmp" GOPATH="$build/go/path" \
	XDG_CONFIG_HOME="$build/go/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off GOTELEMETRY=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
