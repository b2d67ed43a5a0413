#!/bin/sh
# Builds gossipbench from source and runs it. Everything the build
# leaves behind (Go's build cache, temporary files and telemetry
# counters, the binary) stays in .bench_build at the root of the
# checkout, so the benchmark reads and writes nothing outside it.
# Arguments go to the binary unchanged; see README.md.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOWORK=off
go build -o "$build/gossipbench" .
exec "$build/gossipbench" "$@"
