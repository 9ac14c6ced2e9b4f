#!/usr/bin/env bash
# A/B protocol for a performance claim (bench/README.md, "Landing a change"):
#
#   scripts/bench_ab.sh BASE HEAD N
#
# checks BASE and HEAD out into two git worktrees, runs the repository
# benchmark on both N times (`bash bench/run.sh --workload all`, every run
# at the benchmark's own length), alternating which side goes first so that
# a slow minute of the box lands on both, compares each pair with
# `bench -compare`, and prints for every gated metric of every workload each
# side's quartiles and median, the median difference and who won how many
# pairs. Ten pairs are what a claim needs; results stay in bench/out/ab-*/.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 BASE HEAD N" >&2
	exit 2
fi
base=$1 head=$2 pairs=$3
root=$(git rev-parse --show-toplevel)
out="$root/bench/out/ab-$(git rev-parse --short "$base")-$(git rev-parse --short "$head")"
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$work/a" 2>/dev/null || true
	git -C "$root" worktree remove --force "$work/b" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$work/a" "$base"
git -C "$root" worktree add --quiet --detach "$work/b" "$head"
mkdir -p "$out"

for i in $(seq 1 "$pairs"); do
	order="a b"
	if [ $((i % 2)) -eq 0 ]; then order="b a"; fi
	for side in $order; do
		echo "== pair $i/$pairs, side $side"
		# A failed check makes run.sh exit 1; the pair is still recorded
		# and the failure shows as error_rate in the comparison.
		(cd "$work/$side" && bash bench/run.sh --workload all --out "$out/$side-$i") >"$out/$side-$i.log" 2>&1 ||
			echo "   side $side exited non-zero, see $out/$side-$i.log"
	done
	(cd "$work/b" && go run ./bench -compare "$out"/a-"$i"/set-*.json "$out"/b-"$i"/set-*.json) >"$out/compare-$i.txt" || true
	tail -n 1 "$out/compare-$i.txt"
done

jq -n -r -f "$root/scripts/bench_ab_summary.jq" --slurpfile manifest "$root/BENCHMARK.json" "$out"/[ab]-*/set-*.json |
	tee "$out/summary.txt"
