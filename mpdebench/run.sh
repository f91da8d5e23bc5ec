#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash mpdebench/run.sh --workload sweep-matfree --seed 1 --seconds 50 --trace 0
#
# Every build product (Go build cache, temporary files, the binary, trace
# files) stays under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -C mpdebench -o "$build/mpdebench" .
exec "$build/mpdebench" "$@"
