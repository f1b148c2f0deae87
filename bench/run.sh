#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build leaves behind (binary, Go build cache, module
# cache, temp files, the go command's own config and telemetry) goes
# under .bench_build/; everything the run leaves behind (traces,
# ledgers, controller state files) under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=$PWD/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	go build -C bench -o "$build/greennfv-bench" .
exec "$build/greennfv-bench" "$@"
