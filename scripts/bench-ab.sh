#!/usr/bin/env bash
# bench-ab.sh BASE — interleaved same-host benchmark A/B of the working
# tree against revision BASE.
#
# BASE is extracted with `git archive` (no network). For every package
# holding a selected benchmark, both sides' test binaries are built
# with `go test -c`. Then PAIRS rounds run each side's binaries once
# (-count=1), alternating which side goes first, so both sides sample
# the same minutes of machine load; every run uses -test.benchtime 1s
# on both sides. Per benchmark it prints each side's median and
# quartiles of ns/op and allocs/op, and the number of pairs the
# working tree won on ns/op.
#
# Usage: bash scripts/bench-ab.sh <rev>   (or: make bench-ab BASE=<rev>)
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
# (so ignored build output such as out/ is never scanned).
dirs=$(git -C "$root" ls-files -co --exclude-standard -- '*_test.go' | (cd "$root" && xargs grep -l '^func Benchmark') | xargs -n1 dirname | sort -u)
build base "$work/base-src"
build head "$root"

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

# Summarize: per (package, benchmark), the i-th result of each side is
# pair i. Quartiles interpolate linearly between order statistics.
awk '
function sortn(a, n,   i, j, v) {
	for (i = 2; i <= n; i++) {
		v = a[i]
		for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
		a[j + 1] = v
	}
}
function q(a, n, p,   h, l) {
	h = (n - 1) * p + 1
	l = int(h)
	return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
}
function stats(side, key, field, out,   n, i, a) {
	n = count[side, key]
	for (i = 1; i <= n; i++) a[i] = val[side, key, i, field]
	sortn(a, n)
	out["q1"] = q(a, n, 0.25); out["med"] = q(a, n, 0.5); out["q3"] = q(a, n, 0.75)
}
FNR == 1 { side = (FILENAME ~ /base\.txt$/) ? "base" : "head" }
/^pkg: / { pkg = $2; next }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	key = pkg " " name
	if (!(key in seen)) { seen[key] = 1; keys[++nkeys] = key }
	n = ++count[side, key]
	for (f = 3; f < NF; f++) {
		if ($(f + 1) == "ns/op") val[side, key, n, "ns"] = $f
		if ($(f + 1) == "allocs/op") val[side, key, n, "allocs"] = $f
	}
}
END {
	printf "%-50s %28s %28s %7s %5s %16s %16s\n", "benchmark", "base ns/op [q1 q3]", "head ns/op [q1 q3]", "delta", "won", "base allocs/op", "head allocs/op"
	for (k = 1; k <= nkeys; k++) {
		key = keys[k]
		if (count["base", key] == 0 || count["head", key] == 0) {
			printf "%-50s only on %s\n", key, count["base", key] ? "base" : "head"
			continue
		}
		stats("base", key, "ns", b); stats("head", key, "ns", h)
		stats("base", key, "allocs", ba); stats("head", key, "allocs", ha)
		won = 0
		m = count["base", key] < count["head", key] ? count["base", key] : count["head", key]
		for (i = 1; i <= m; i++) if (val["head", key, i, "ns"] < val["base", key, i, "ns"]) won++
		printf "%-50s %10.0f [%7.0f %7.0f] %10.0f [%7.0f %7.0f] %+6.1f%% %2d/%-2d %16.0f %16.0f\n", key,
			b["med"], b["q1"], b["q3"], h["med"], h["q1"], h["q3"],
			100 * (h["med"] / b["med"] - 1), won, m, ba["med"], ha["med"]
	}
}' "$work/base.txt" "$work/head.txt"
