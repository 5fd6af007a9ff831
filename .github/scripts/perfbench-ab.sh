#!/usr/bin/env bash
# Paired A/B performance gate: perfbench and the root package's layer
# benchmarks on the merge base against the same on the checked-out tree,
# on one host, in alternation. Run from anywhere inside the repository:
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
# run one after the other, and then PAIRS pairs of the bench kind: the
# root package's test binary, built once per side with go test -c, runs
# each entry of BENCHES, one canonical benchmark per layer, at
# -test.benchtime BENCH_TIME and -test.cpu 1, pinned to CPU 0. The bench
# runs go in BENCH_ROUNDS rounds, each visiting every pair and running
# each benchmark on both sides in turn, and a pair's ns/op for a row on
# one side is the least of its BENCH_ROUNDS runs. Pair i runs seed i on
# both sides, and the side that runs first alternates with i.
# The gate fails when
#
#   - any run, base or change, prints correct:false or exits non-zero;
#   - an entry of BENCHES prints no ns/op row on the change side;
#   - the change's failed share (failed ops over attempted ops, summed
#     over its runs) is above the base's;
#   - the change's ops_per_s is below the base's, or its p50_ms or a
#     benchmark's ns/op above the base's, by more than the threshold,
#     taking the median over the pairs of change / base.
#
# A benchmark row the base does not have is reported as new and not
# judged.
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
#   threshold = max(floor, IQR / median)
#
# over the base's PAIRS runs (IQR = 4th minus 2nd of the 5 sorted
# values): the rule the benchmark applies to a claimed gain, turned
# round. The floor keeps a base whose five runs happen to agree closely
# from turning host noise into a failure. MIN_THRESHOLD, perfbench's
# floor, comes from nine
# runs of one tree against itself on a 2-CPU shared host (go1.24),
# whose paired medians moved by up to 13%, 11% in the harmful
# direction; a 30% slowdown of the wave kernels moved simulate's
# ops_per_s by 15-22%.
#
# BENCH_TIME, BENCH_ROUNDS, BENCH_MIN_THRESHOLD (the bench kind's
# floor) and the pinning come from runs of one test binary against a
# copy of itself on the same 2-CPU shared host. A run there reads up to
# 1.7 times another, in spells from a fraction of a second to tens of
# seconds, so one 0.5 s run per side put 5-pair medians up to 39% apart.
# The least of 8 rounds at 0.1 s, each pair's rounds back to back, cut
# that to 8%, yet 2 of 3 self-comparisons of the whole script failed:
# unpinned, alternating processes landed on alternate CPUs, so one side
# could hold the slower CPU for a whole pair and read 1.3-1.5 times the
# other. Pinned, with each round visiting every pair, three 5-pair runs
# moved by at most 10% and read base IQR/median up to 28%, and a 30%
# slowdown of the wave kernels read 31-47% on the wave rows.
#
# Left out: p90 and p99 (simulate's p99 spread is about its 25% bound),
# setup_s (bimodal on serve-cold), peak_heap_mb (it moves with
# throughput) and the sweep workload (about 3 ops/s: too few ops in
# RUN_SECONDS).
set -euo pipefail

PAIRS=5
RUN_SECONDS=5
MIN_THRESHOLD=0.12
# Each entry is anchored at every level: go test -bench matches each
# /-separated part against one level of the names, which keep their
# Benchmark prefix, and an unanchored part also enters the setup of
# every top-level benchmark whose name contains it.
BENCHES=('^BenchmarkEngineWaveLoop$' '^BenchmarkBitWaveLoop$' '^BenchmarkTableWaveLoop$'
	'^BenchmarkBufferedRunner$' '^BenchmarkBaselineLabels$/^omega$/^n=10$'
	'^BenchmarkColdCheck$/^check$/^n=10$' '^BenchmarkColdCheck$/^isocheck$/^n=10$'
	'^BenchmarkServeColdCheck$/^iso$/^json$/^n=10$' '^BenchmarkDecodeRequest$/^json$/^n=10$'
	'^BenchmarkFabricCompile$/^relabeled$/^n=10$')
BENCH_TIME=0.1s
BENCH_ROUNDS=8
BENCH_MIN_THRESHOLD=0.15
WORKLOADS=(serve-cold simulate bench)

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

# layers makes every bench run before the bench pairs are judged:
# BENCH_ROUNDS rounds, each running every entry of BENCHES for every
# pair on both sides in turn, the side that goes first alternating. A
# run that fails, or a change-side run that prints no ns/op row (an
# entry that matches nothing), leaves a FAIL line in its output. A
# base-side run with no row is left to the verdict, which reports a
# benchmark the base does not have as new.
layers() {
	local r i b side order out
	for ((r = 1; r <= BENCH_ROUNDS; r++)); do
		for ((i = 1; i <= PAIRS; i++)); do
			order=(base change)
			if (((r + i) % 2)); then
				order=(change base)
			fi
			for b in "${BENCHES[@]}"; do
				for side in "${order[@]}"; do
					if ! out=$(cd "${tree[$side]}" && taskset -c 0 "$work/$side.test" -test.run '^$' \
						-test.bench "$b" -test.benchtime "$BENCH_TIME" -test.cpu 1 -test.timeout 10m \
						2>>"$work/$side.log"); then
						echo "FAIL $b on the $side side" >&2
						out+=$'\nFAIL'
					elif [ "$side" = change ] && [[ $out != *ns/op* ]]; then
						echo "FAIL $b matched no benchmark on the $side side" >&2
						out+=$'\nFAIL'
					fi
					printf '%s\n' "$out" >>"$work/bench.$i.$side.out"
				done
			done
		done
	done
}

# bench SIDE WORKLOAD SEED SECONDS prints the run's result line. For the
# bench kind, each row's ns/op is the least of its BENCH_ROUNDS runs.
bench() {
	if [ "$2" = bench ]; then
		jq -cRn '[inputs] as $lines
			| [$lines[] | [splits("\\s+")] | select(.[3] == "ns/op") | {key: .[0], value: (.[2] | tonumber)}]
			| group_by(.key) | map({key: .[0].key, value: {value: (map(.value) | min)}})
			| {correct: ($lines | index("FAIL") | not), attempted: length, failed: 0, metrics: from_entries}' \
			<"$work/bench.$3.$1.out"
		return
	fi
	(cd "${tree[$1]}" && bash perfbench/run.sh --workload "$2" --seed "$3" \
		--seconds "$4" --trace 0 2>>"$work/$1.log") | tail -n 1
}

# Each side's root test binary is built once. The first perfbench call
# on each side builds it; this short run keeps the build out of the
# first pair.
for side in base change; do
	if ! (cd "${tree[$side]}" && go test -c -o "$work/$side.test" . 2>>"$work/$side.log") ||
		! bench "$side" simulate 1 0.2 >/dev/null; then
		echo "the $side side failed to build or run:" >&2
		tail -n 20 "$work/$side.log" >&2
		exit 1
	fi
done

failed=0
for w in "${WORKLOADS[@]}"; do
	if [ "$w" = bench ]; then
		layers
	fi
	for ((i = 1; i <= PAIRS; i++)); do
		order=(base change)
		if ((i % 2 == 0)); then
			order=(change base)
		fi
		for side in "${order[@]}"; do
			if ! line=$(bench "$side" "$w" "$i" "$RUN_SECONDS") || [ -z "$line" ]; then
				echo "FAIL $w seed $i: the run exited non-zero on the $side side" >&2
				tail -n 20 "$work/$side.log" >&2
				failed=1
				line='{"correct":false,"attempted":0,"failed":0,"metrics":{}}'
			fi
			echo "$line" >>"$work/$w.$side.jsonl"
			printf '%-10s seed %d %-6s %s\n' "$w" "$i" "$side" "$line"
		done
	done
done

# One row per check; the last field is ok, new or FAIL.
for w in "${WORKLOADS[@]}"; do
	floor=$MIN_THRESHOLD
	if [ "$w" = bench ]; then
		floor=$BENCH_MIN_THRESHOLD
	fi
	jq -nr --arg w "$w" --argjson floor "$floor" \
		--slurpfile b "$work/$w.base.jsonl" --slurpfile c "$work/$w.change.jsonl" '
		def med: sort | .[length / 2 | floor];
		def iqr: sort | .[3 * length / 4 | floor] - .[length / 4 | floor];
		def share: (map(.failed) | add) / ([map(.attempted) | add, 1] | max);
		def pct: . * 1000 | round / 10 | tostring + "%";
		def cmp($m; $sign):
			($b | map(.metrics[$m].value | numbers)) as $bv
			| ($c | map(.metrics[$m].value | numbers)) as $cv
			| if ($bv | length) == 0 and ($cv | length) == ($c | length) then
				"\($w) \($m): not on the base side, not judged: new"
			elif ($bv | length) < ($b | length) or ($cv | length) < ($c | length) then
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
		if $w == "bench" then
			([$b[], $c[] | .metrics | keys[]] | unique[] as $m | cmp($m; 1))
		else
			cmp("ops_per_s"; -1), cmp("p50_ms"; 1)
		end
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
