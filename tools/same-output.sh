#!/usr/bin/env bash
# Checks that snicbench prints and writes byte-identical output at a base
# commit and in the working tree. Run from anywhere inside the checkout:
#
#   bash tools/same-output.sh [BASE]        # BASE defaults to HEAD
#
# The base is checked out with `git worktree` into a temporary directory
# and both sides are built from source. Every run's stdout and the files
# it writes are compared by SHA-256 digest, because the traces run to
# hundreds of megabytes; each run's outputs are deleted once compared.
# Stderr is not compared: it carries the wall-clock events/s line.
set -euo pipefail

base=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$work/src" >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/src" "$base"
(cd "$work/src" && go build -o "$work/snicbench.base" ./cmd/snicbench)
(cd "$root" && go build -o "$work/snicbench.tree" ./cmd/snicbench)

failed=0
# check NAME ARGS...: runs both builds with ARGS in fresh directories
# (file arguments are relative names) and compares what they produced.
check() {
	local name=$1
	shift
	for side in base tree; do
		mkdir -p "$work/$side"
		if ! (cd "$work/$side" && "$work/snicbench.$side" "$@" >stdout 2>stderr); then
			echo "snicbench at $side failed: $*" >&2
			cat "$work/$side/stderr" >&2
			exit 1
		fi
		rm "$work/$side/stderr"
		(cd "$work/$side" && sha256sum -- * >"$work/$side.sum")
	done
	if cmp -s "$work/base.sum" "$work/tree.sum"; then
		echo "same output: $name"
	else
		echo "OUTPUT DIFFERS: $name"
		diff "$work/base.sum" "$work/tree.sum" || true
		failed=1
	fi
	rm -rf "$work/base" "$work/tree"
}

check "all" -exp all -q -j 1 -profile profile.json
check "all recorded" -exp all -q -j 1 -metrics metrics.json -manifest manifest.json
check "fig4 nat" -exp fig4 -func nat -q -trace trace.json -metrics metrics.csv
check "fleet" -exp fleet -q -manifest manifest.json
check "pipeline" -exp pipeline -q -trace trace.json -metrics metrics.csv -manifest manifest.json
check "offload" -exp offload -q -trace trace.json -metrics metrics.csv -manifest manifest.json
# Checked and recorded without a trace: spans are audited and dropped,
# so these manifests are built from the recorder's counters.
check "faults checked" -exp faults -q -j 1 -check -metrics metrics.json -manifest manifest.json
check "pipeline checked" -exp pipeline -q -j 1 -check -manifest manifest.json
check "strategies checked" -exp strategies -q -j 1 -check -metrics metrics.json -manifest manifest.json
# Traced: the failover replays' spans, stragglers included, by digest.
check "faults traced" -exp faults -q -j 1 -trace trace.json

if [ "$failed" -ne 0 ]; then
	echo "snicbench output differs from $base" >&2
	exit 1
fi
echo "same output as $base: OK"
