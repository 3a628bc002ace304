#!/usr/bin/env bash
# Checks that snicbench prints and writes byte-identical output at a base
# commit and in the working tree. Run from anywhere inside the checkout:
#
#   bash tools/same-output.sh [BASE]        # BASE defaults to HEAD
#
# The base is extracted with `git archive` into a temporary directory,
# which only reads the repository, and both sides are built from source.
# Every run's stdout and the files it writes are compared by SHA-256
# digest, because the traces run to hundreds of megabytes; each run's
# outputs are deleted once compared. Where a file differs and both copies
# are under 64 KiB, the first 40 lines of their diff are printed first.
# Stderr is not compared: it carries the wall-clock events/s line. The
# temporary directory honours TMPDIR.
set -euo pipefail

base=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/src"
git -C "$root" archive "$base" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/snicbench.base" ./cmd/snicbench)
(cd "$root" && go build -o "$work/snicbench.tree" ./cmd/snicbench)

failed=0
# show_diffs prints the start of the diff of each output file that
# differs between the two sides, when both copies are under 64 KiB.
show_diffs() {
	local path f
	for path in "$work/base"/*; do
		f=${path##*/}
		[ -f "$work/tree/$f" ] || continue
		cmp -s "$path" "$work/tree/$f" && continue
		if [ "$(wc -c <"$path")" -lt 65536 ] && [ "$(wc -c <"$work/tree/$f")" -lt 65536 ]; then
			echo "diff of $f (first 40 lines):"
			diff "$path" "$work/tree/$f" | head -n 40 || true
		fi
	done
}

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
		show_diffs
		failed=1
	fi
	rm -rf "$work/base" "$work/tree"
}

check "all" -exp all -q -j 1 -profile profile.json
check "all recorded" -exp all -q -j 1 -metrics metrics.json -manifest manifest.json
check "fig4 nat" -exp fig4 -func nat -q -trace trace.json -metrics metrics.csv
check "fleet" -exp fleet -q -manifest manifest.json -metrics metrics.csv
check "pipeline" -exp pipeline -q -trace trace.json -metrics metrics.csv -manifest manifest.json
check "offload" -exp offload -q -trace trace.json -metrics metrics.csv -manifest manifest.json
# Checked and recorded without a trace: each span is audited as it is
# recorded and never stored, so these manifests are built from the
# recorder's counters. Fig4 reaches the local (crypto, compress),
# storage (fio) and switched (OvS) request paths.
check "fig4 checked" -exp fig4 -q -j 1 -check -manifest manifest.json
check "faults checked" -exp faults -q -j 1 -check -metrics metrics.json -manifest manifest.json
check "pipeline checked" -exp pipeline -q -j 1 -check -manifest manifest.json
check "offload checked" -exp offload -q -j 1 -check -metrics metrics.json -manifest manifest.json
check "strategies checked" -exp strategies -q -j 1 -check -metrics metrics.json -manifest manifest.json
check "fleet checked" -exp fleet -q -j 1 -check -metrics metrics.json -manifest manifest.json
# Traced: the failover replays' spans, stragglers included, by digest,
# with their failover gauges and imported sensor series as CSV.
check "faults traced" -exp faults -q -j 1 -trace trace.json -metrics metrics.csv
# Checked and traced: the runs the span audit checks as they record are
# the runs the trace exports.
check "pipeline checked traced" -exp pipeline -q -j 1 -check -trace trace.json

if [ "$failed" -ne 0 ]; then
	echo "snicbench output differs from $base" >&2
	exit 1
fi
echo "same output as $base: OK"
