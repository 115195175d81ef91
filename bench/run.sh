#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload protect --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every temporary or tool file go under
# .bench_build/ in the current directory. The first run compiles the
# standard library into that cache; later runs only relink.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$out/kivati-bench" .
exec "$out/kivati-bench" "$@"
