#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; every build and run output stays under
# .bench_build/ there, including the go command's cache, temporary files
# and the telemetry counters it keeps in the user config directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
