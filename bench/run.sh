#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Every build artefact (compiler cache, temporary files, the binary and
# trace dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/bench" build -o "$out/gbd-e2e" .
exec "$out/gbd-e2e" "$@"
