#!/usr/bin/env bash
# Builds grophecyd and the benchmark from this checkout's sources, then
# runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload project_warm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout. Without the repository around perfbench/ the build fails
# and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root"
go build -o "$out/grophecyd" ./cmd/grophecyd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --daemon "$out/grophecyd" --workdir "$out/run.$$" "$@"
