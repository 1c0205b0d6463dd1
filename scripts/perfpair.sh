#!/usr/bin/env bash
# Paired perfbench runs of one workload: the working tree against a base
# revision.
#
#   scripts/perfpair.sh BASE WORKLOAD [PAIRS=5] [SECONDS=25]
#
# Builds perfbench twice into .bench_build/pair/: from BASE's committed
# tree (extracted with git archive, local history only) and from the
# working tree, with the environment perfbench/run.sh sets. Then it runs
# PAIRS pairs in ABBA order (odd pairs run the base first), each run with
# --seed 1 --trace 0 for SECONDS seconds. A run whose result line lacks
# "correct":true or has failed above 0 stops the script, printing that
# run's stderr.
#
# For every end_to_end metric in BENCHMARK.json it prints each pair's two
# values and both medians; the median change/base ratio with its 95%
# sign-test interval from order statistics ("too few pairs" under 6,
# where no such interval reaches 95%); and how many pairs the change
# won, by the metric's better direction. Run it from anywhere in the
# repository; it needs git, go, jq and awk.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: $0 BASE WORKLOAD [PAIRS=5] [SECONDS=25]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=${3:-5} seconds=${4:-25}

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify --quiet "$base^{commit}") ||
	{ echo "perfpair: $base is not a commit" >&2; exit 2; }

out=$root/.bench_build
dir=$out/pair
mkdir -p "$dir" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

src=$(mktemp -d "$dir/base-src.XXXXXX")
trap 'rm -rf "$src"' EXIT
git archive "$rev" | tar -x -C "$src"
echo "building perfbench at $rev and at the working tree" >&2
(cd "$src/perfbench" && go build -o "$dir/base" .)
(cd perfbench && go build -o "$dir/change" .)
rm -rf "$src"

# runs.tsv holds one line per pair, side and metric: pair side name value.
runs=$dir/runs.tsv
: > "$runs"
run() { # run <pair> <side>
	"$dir/$2" -out "$out" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
		> "$dir/$2.out" 2> "$dir/$2.err" || true
	result=$(tail -n 1 "$dir/$2.out")
	if ! jq -e '.correct == true and .failed == 0' <<< "$result" > /dev/null 2>&1; then
		echo "perfpair: pair $1, $2 run failed or was wrong: $result" >&2
		cat "$dir/$2.err" >&2
		exit 1
	fi
	jq -r --arg pair "$1" --arg side "$2" \
		'.metrics | to_entries[] | "\($pair)\t\($side)\t\(.key)\t\(.value.value)"' <<< "$result" >> "$runs"
}
for p in $(seq 1 "$pairs"); do
	echo "pair $p of $pairs" >&2
	if [ $((p % 2)) -eq 1 ]; then
		run "$p" base
		run "$p" change
	else
		run "$p" change
		run "$p" base
	fi
done

echo "perfbench $workload, base $rev against the working tree, $pairs pairs of ${seconds}s (ABBA)"
jq -r '.end_to_end[] | "\(.name)\t\(.unit)\t\(.better)"' BENCHMARK.json |
	awk -F'\t' -v pairs="$pairs" -v runs="$runs" '
function median(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) {
			t = a[j]; a[j] = a[j-1]; a[j-1] = t
		}
	return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
# signrank returns the largest k with P(Binomial(n, 1/2) < k) <= 0.025,
# so that [r(k), r(n+1-k)] covers the median ratio with at least 95%; 0
# when even [r(1), r(n)] falls short.
function signrank(n,    k, p, cdf) {
	p = 0.5 ^ n
	cdf = 0
	for (k = 0; k < n; k++) {
		cdf += p
		if (cdf > 0.025)
			return k
		p = p * (n - k) / (k + 1)
	}
	return 0
}
BEGIN {
	while ((getline line < runs) > 0) {
		split(line, f, "\t")
		v[f[3], f[2], f[1]] = f[4]
	}
}
{
	name = $1; unit = $2; better = $3
	if (!((name, "base", 1) in v))
		next
	printf "\n%s (%s, %s is better)\n", name, unit, better
	won = 0
	for (p = 1; p <= pairs; p++) {
		b = v[name, "base", p]; c = v[name, "change", p]
		printf "  pair %d: base %.6g  change %.6g\n", p, b, c
		bs[p] = b; cs[p] = c
		rs[p] = b != 0 ? c / b : 0
		if (better == "lower" ? c < b : c > b)
			won++
	}
	printf "  median: base %.6g  change %.6g\n", median(bs, pairs), median(cs, pairs)
	mr = median(rs, pairs)
	k = signrank(pairs)
	if (k == 0)
		printf "  change/base: median %.4f, too few pairs for a 95%% interval\n", mr
	else
		printf "  change/base: median %.4f, 95%% interval [%.4f, %.4f]\n", mr, rs[k], rs[pairs+1-k]
	printf "  change won %d of %d pairs\n", won, pairs
}'
