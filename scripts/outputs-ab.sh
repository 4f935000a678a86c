#!/usr/bin/env bash
# outputs-ab.sh BASE — diff the CLI outputs of the working tree against
# those of revision BASE.
#
# BASE is extracted with `git archive` (no network), ./cmd/... is built
# on both sides, and one fixed list of grophecy, pciecal and paper runs
# is executed on each, every side from its own source root. The
# `time=` prefix of log lines and each side's output directory are
# stripped, then the two output trees are diffed. Exits non-zero on
# any difference.
#
# Usage: bash scripts/outputs-ab.sh <rev>   (or: make outputs-ab BASE=<rev>)
# Outputs land in $OUTPUTS_AB_DIR (default out/outputs-ab).
set -euo pipefail

base=${1:?usage: outputs-ab.sh <rev>}
root=$(git rev-parse --show-toplevel)
work=${OUTPUTS_AB_DIR:-$root/out/outputs-ab}
mkdir -p "$work"
work=$(cd "$work" && pwd)

rm -rf "$work/base-src" "$work/base" "$work/head"
mkdir -p "$work/base-src"
git -C "$root" archive "$base" | tar -x -C "$work/base-src"

faultplans=(
	"transient=0.3,outlier=0.05:8:3,slow=40:5:6,drift=0.001,seed=3"
	"transient=0.05,outlier=0.05:8:3,seed=3"
)
workloads=(
	"CFD|233K"
	"CFD|97K"
	"HotSpot|1024 x 1024"
	"HotSpot|64 x 64"
	"SRAD|2048 x 2048"
	"Stassuij|132x132 x 132x2048"
)
backends=(analytic fitted piecewise)

# run NAME CMD... runs one command, saving stdout+stderr and the exit
# status as $out/NAME.out. The command may write $out/NAME.trace.json.
run() {
	local name=$1
	shift
	local rc=0
	"$@" >"$out/$name.out" 2>&1 || rc=$?
	echo "exit $rc" >>"$out/$name.out"
}

# side SRC BIN OUT runs the fixed list with the binaries in BIN, from
# the source root SRC, into OUT.
side() {
	local src=$1 bin=$2
	out=$3
	mkdir -p "$bin" "$out"
	(cd "$src" && go build -o "$bin/" ./cmd/...)
	cd "$src"
	local wl app size bk i name
	for wl in "${workloads[@]}"; do
		app=${wl%%|*}
		size=${wl#*|}
		for bk in "${backends[@]}"; do
			name="$app-${size// /}-$bk"
			run "$name-clean" "$bin/grophecy" -app "$app" -size "$size" -backend "$bk" \
				-trace "$out/$name-clean.trace.json" -spans -metrics
			for i in "${!faultplans[@]}"; do
				run "$name-faults$i" "$bin/grophecy" -app "$app" -size "$size" -backend "$bk" \
					-faults "${faultplans[$i]}" -json -trace "$out/$name-faults$i.trace.json"
			done
		done
	done
	run pipeline-clean "$bin/grophecy" -skeleton skeletons/pipeline.sk \
		-trace "$out/pipeline-clean.trace.json" -spans -metrics
	run pipeline-faults "$bin/grophecy" -skeleton skeletons/pipeline.sk -faults transient=0.7,seed=1 \
		-json -trace "$out/pipeline-faults.trace.json"
	run pciecal "$bin/pciecal" -trace "$out/pciecal.trace.json"
	run paper-all "$bin/paper" -all
	cd "$root"

	# Normalise what legitimately differs between the two sides.
	local f
	for f in "$out"/*; do
		sed -i -e 's/^time=[^ ]* //' -e "s#$out#OUT#g" "$f"
	done
}

side "$work/base-src" "$work/base-bin" "$work/base"
side "$root" "$work/head-bin" "$work/head"

n=$(ls "$work/head" | wc -l)
if diff -r "$work/base" "$work/head"; then
	echo "outputs-ab: $n outputs identical to $base"
else
	echo "outputs-ab: outputs differ from $base (see $work/base and $work/head)" >&2
	exit 1
fi
