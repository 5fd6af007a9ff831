#!/usr/bin/env bash
# Paired A/B serving gate: perfbench on the merge base against perfbench
# on the checked-out tree, on one host, in alternation. Run from
# anywhere inside the repository:
#
#   bash .github/scripts/perfbench-ab.sh [base-ref]    # default origin/main
#
# The base side is `git merge-base <base-ref> HEAD`, checked out in a
# git worktree under a fresh `mktemp -d` directory (outside the
# repository; removed on exit). The change side is the working tree.
#
# For each of serve-cold and simulate, PAIRS pairs of
#
#   bash perfbench/run.sh --workload W --seed S --seconds RUN_SECONDS --trace 0
#
# run one after the other. Pair i runs seed i on both sides, and the
# side that runs first alternates with i. The gate fails when
#
#   - any run, base or change, prints correct:false or exits non-zero;
#   - the change's failed share (failed ops over attempted ops, summed
#     over its runs) is above the base's;
#   - the change's ops_per_s is below the base's, or its p50_ms above
#     the base's, by more than the threshold, taking the median over
#     the pairs of change / base.
#
# The median of the pair ratios, not the ratio of the two sides'
# medians: a shared host drifts between fast and slow spells lasting
# tens of seconds, and a drift across one pair lets the two medians
# come from different pairs. Two runs of one tree read serve-cold p50
# 12.8% apart that way, and 2.5% apart pair by pair.
#
# The threshold is taken from the base's own spread, per workload and
# metric:
#
#   threshold = max(MIN_THRESHOLD, IQR / median)
#
# over the base's PAIRS runs (IQR = 4th minus 2nd of the 5 sorted
# values): the rule the benchmark applies to a claimed gain, turned
# round. MIN_THRESHOLD keeps a base whose five runs happen to agree
# closely from turning host noise into a failure. It comes from nine
# runs of one tree against itself on a 2-CPU shared host (go1.24),
# whose paired medians moved by up to 13%, 11% in the harmful
# direction; a 30% slowdown of the wave kernels moved simulate's
# ops_per_s by 15-22%.
#
# Left out: p90 and p99 (simulate's p99 spread is about its 25% bound),
# setup_s (bimodal on serve-cold), peak_heap_mb (it moves with
# throughput) and the sweep workload (about 3 ops/s: too few ops in
# RUN_SECONDS).
set -euo pipefail

PAIRS=5
RUN_SECONDS=5
MIN_THRESHOLD=0.12
WORKLOADS=(serve-cold simulate)

cd "$(git rev-parse --show-toplevel)"
ref=${1:-origin/main}
base=$(git merge-base "$ref" HEAD)
work=$(mktemp -d)
cleanup() {
	git worktree remove --force "$work/base" >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$work/base" "$base"
declare -A tree=([base]="$work/base" [change]="$PWD")
echo "perfbench A/B: base $(git rev-parse --short "$base"), change $(git rev-parse --short HEAD) plus the working tree"

# bench SIDE WORKLOAD SEED SECONDS prints the run's result line.
bench() {
	(cd "${tree[$1]}" && bash perfbench/run.sh --workload "$2" --seed "$3" \
		--seconds "$4" --trace 0 2>>"$work/$1.log") | tail -n 1
}

# The first call on each side builds perfbench; this short run keeps the
# build out of the first pair.
for side in base change; do
	if ! bench "$side" simulate 1 0.2 >/dev/null; then
		echo "perfbench failed to build or run on the $side side:" >&2
		tail -n 20 "$work/$side.log" >&2
		exit 1
	fi
done

failed=0
for w in "${WORKLOADS[@]}"; do
	for ((i = 1; i <= PAIRS; i++)); do
		order=(base change)
		if ((i % 2 == 0)); then
			order=(change base)
		fi
		for side in "${order[@]}"; do
			if ! line=$(bench "$side" "$w" "$i" "$RUN_SECONDS") || [ -z "$line" ]; then
				echo "FAIL $w seed $i: perfbench exited non-zero on the $side side" >&2
				tail -n 20 "$work/$side.log" >&2
				failed=1
				line='{"correct":false,"attempted":0,"failed":0,"metrics":{}}'
			fi
			echo "$line" >>"$work/$w.$side.jsonl"
			printf '%-10s seed %d %-6s %s\n' "$w" "$i" "$side" "$line"
		done
	done
done

# One row per check; the last field is ok or FAIL.
for w in "${WORKLOADS[@]}"; do
	jq -nr --arg w "$w" --argjson floor "$MIN_THRESHOLD" \
		--slurpfile b "$work/$w.base.jsonl" --slurpfile c "$work/$w.change.jsonl" '
		def med: sort | .[length / 2 | floor];
		def iqr: sort | .[3 * length / 4 | floor] - .[length / 4 | floor];
		def share: (map(.failed) | add) / ([map(.attempted) | add, 1] | max);
		def pct: . * 1000 | round / 10 | tostring + "%";
		def cmp($m; $sign):
			($b | map(.metrics[$m].value | numbers)) as $bv
			| ($c | map(.metrics[$m].value | numbers)) as $cv
			| if ($bv | length) < ($b | length) or ($cv | length) < ($c | length) then
				"\($w) \($m): missing from a run FAIL"
			else
				([range($bv | length)] | map($cv[.] / $bv[.]) | med) as $ratio
				| ([$floor, ($bv | iqr) / ($bv | med)] | max) as $thr
				| ($sign * ($ratio - 1)) as $worse
				| "\($w) \($m): medians base \($bv | med) change \($cv | med); pairs put the change worse by \($worse | pct) (threshold \($thr | pct)) "
				  + (if $worse > $thr then "FAIL" else "ok" end)
			end;
		"\($w) correct: base \($b | map(select(.correct)) | length)/\($b | length) change \($c | map(select(.correct)) | length)/\($c | length) "
			+ (if ($b + $c | all(.correct)) then "ok" else "FAIL" end),
		"\($w) failed share: base \($b | share) change \($c | share) "
			+ (if ($c | share) > ($b | share) then "FAIL" else "ok" end),
		cmp("ops_per_s"; -1),
		cmp("p50_ms"; 1)
	' | tee -a "$work/verdict.txt"
done
if grep -q 'FAIL$' "$work/verdict.txt"; then
	failed=1
fi
if ((failed)); then
	echo "perfbench A/B: FAIL"
	exit 1
fi
echo "perfbench A/B: pass"
