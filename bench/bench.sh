#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/bench.sh --workload kv-twitter --seed 1 --seconds 10 --trace 0
#
# With no arguments it only builds. The binary, the Go build cache and any
# Go tool state go to $CARGO_TARGET_DIR (default .bench_build), so the build
# reads and writes nothing outside the checkout beyond the Go toolchain.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

# Telemetry off: the go command then keeps no counters and starts no
# background process of its own.
go telemetry off
go build -C bench -o "$build/cfbench" .
if [ "$#" -gt 0 ]; then
	exec "$build/cfbench" "$@"
fi
