#!/usr/bin/env bash
# bench-ab.sh BASE — interleaved same-host benchmark A/B of the working
# tree against revision BASE.
#
# BASE is extracted with `git archive` (no network), and both sides'
# test binaries are built with `go test -c` for every package holding
# a selected benchmark. PAIRS rounds then run each side's binaries once
# (-count=1, -test.benchtime 1s), alternating which side goes first,
# so both sample the same minutes of machine load. `benchjson ab`
# summarizes the pairs and exits 1 when the working tree regressed
# against BASE: this is the repository's benchmark gate.
#
# Usage: bash scripts/bench-ab.sh <rev>   (or: make bench-gate BASE=<rev>)
#
# Environment:
#   BENCH         benchmark regexp (default: every benchmark)
#   PAIRS         number of pairs (default 10)
#   CARRY         test files (paths from the repository root) copied
#                 from the working tree into BASE before building, so
#                 a benchmark the change adds is measured on both sides
#   BENCH_AB_DIR  output directory (default out/bench-ab); the raw
#                 runs are base.txt and head.txt there
set -euo pipefail

base=${1:?usage: bench-ab.sh <rev>}
bench=${BENCH:-.}
pairs=${PAIRS:-10}
root=$(git rev-parse --show-toplevel)
work=${BENCH_AB_DIR:-$root/out/bench-ab}
mkdir -p "$work"
work=$(cd "$work" && pwd)

rm -rf "$work/base-src" "$work/bin"
mkdir -p "$work/base-src" "$work/bin/base" "$work/bin/head"
git -C "$root" archive "$base" | tar -x -C "$work/base-src"
for f in ${CARRY:-}; do
	mkdir -p "$work/base-src/$(dirname "$f")"
	cp "$root/$f" "$work/base-src/$f"
done

# binary SIDE DIR names the test binary of package directory DIR.
binary() {
	local name=${2//\//_}
	echo "$work/bin/$1/${name/#./root}.test"
}

# build SIDE SRC compiles SRC's test binary for each package directory
# in $dirs into bin/SIDE; a package that SRC lacks, or that has no
# benchmark matching $bench on that side, is left out.
build() {
	local side=$1 src=$2 dir bin
	for dir in $dirs; do
		[ -d "$src/$dir" ] || continue
		bin=$(binary "$side" "$dir")
		(cd "$src" && go test -c -o "$bin" "./$dir")
		if [ ! -x "$bin" ] || [ -z "$(cd "$src/$dir" && "$bin" -test.list "$bench" | grep '^Benchmark' || true)" ]; then
			rm -f "$bin"
		fi
	done
}

# Package directories with a benchmark, from the files git knows of
# (so ignored build output such as out/ is never scanned) that the
# working tree still holds.
dirs=$(cd "$root" && git ls-files -co --exclude-standard -- '*_test.go' |
	while read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done |
	xargs grep -l '^func Benchmark' | xargs -n1 dirname | sort -u)
build base "$work/base-src"
build head "$root"
(cd "$root" && go build -o "$work/bin/benchjson" ./cmd/benchjson)

# run SIDE SRC runs every binary of SIDE once, from its package
# directory, appending its results (which name their package) to
# SIDE.txt.
run() {
	local side=$1 src=$2 dir bin
	for dir in $dirs; do
		bin=$(binary "$side" "$dir")
		[ -x "$bin" ] || continue
		(cd "$src/$dir" && "$bin" -test.run '^$' -test.bench "$bench" -test.benchmem \
			-test.count 1 -test.benchtime 1s) >>"$work/$side.txt"
	done
}

: >"$work/base.txt"
: >"$work/head.txt"
for ((i = 1; i <= pairs; i++)); do
	echo "pair $i/$pairs" >&2
	if ((i % 2)); then
		run base "$work/base-src"
		run head "$root"
	else
		run head "$root"
		run base "$work/base-src"
	fi
done

# Summarize and gate: benchjson ab pairs the i-th result of each side
# per (package, benchmark) and exits 1 on a regression (see
# cmd/benchjson/ab.go for the rules).
exec "$work/bin/benchjson" ab "$work/base.txt" "$work/head.txt"
