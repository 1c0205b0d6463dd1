#!/bin/sh
# Benchmark harness. Runs three suites, each as five rounds of
# `go test -count 1` into one file, so the two sides of every ratio
# alternate in time and host drift does not read as a difference between
# them. Reduces each suite with scripts/bench.awk to per-benchmark medians
# and IQRs, the host's CPU count (nproc) and the suite's ratios:
#   - batch engine (internal/dqbatch: sequential, parallel at 1-8 workers,
#     vectorized, uniqueness, decode, file, uniqueness-key and per-check
#     cross-record runs, and a two-state uniqueness merge)
#     → BENCH_batch.json;
#   - OCL evaluation (interpreted vs compiled per expression shape, plus
#     BenchmarkBatchCompiled{,Rows}) → BENCH_ocl.json;
#   - attribution overhead (BenchmarkBatchParallel8 vs
#     BenchmarkBatchAttributed8 in each round's process, so both share the
#     build, CPU state and dataset) → BENCH_obs.json.
# The batch run is judged against the newest run archived under
# artifacts/bench and against its ratio floors; each finding is one
# ::warning:: line on stdout, the script's only output there. The run is
# then archived as artifacts/bench/<timestamp>_{batch,ocl,obs}.json.
# Usage: scripts/bench.sh [batch-output.json] [ocl-output.json] [obs-output.json]
# BENCHTIME overrides the go test -benchtime (default 1s).
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_batch.json}"
oclout="${2:-BENCH_ocl.json}"
obsout="${3:-BENCH_obs.json}"
benchtime="${BENCHTIME:-1s}"
count=5
nproc="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
hist=artifacts/bench
prev="$(ls "$hist"/*_batch.json 2>/dev/null | tail -n 1)"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# bench <suite> <output.json> <go test args> runs one suite and reduces it.
# Each round appends to a file, not a pipe, so a failing benchmark fails
# the script; the rounds' output is then copied to stderr.
bench() {
	suite=$1 json=$2
	shift 2
	: > "$raw"
	round=0
	while [ "$round" -lt "$count" ]; do
		go test -run '^$' -benchmem -benchtime "$benchtime" -count 1 "$@" >> "$raw" ||
			{ cat "$raw" >&2; exit 1; }
		round=$((round + 1))
	done
	cat "$raw" >&2
	awk -f scripts/bench.awk -v suite="$suite" -v out="$json" -v prev="$prev" \
		-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v nproc="$nproc" \
		-v benchtime="$benchtime" -v count="$count" "$raw"
	echo "wrote $json" >&2
}

bench batch "$out" -bench 'Benchmark(Batch(Sequential|Parallel[0-9]+|Vectorized|Uniqueness(Bloom)?[0-9]+|File(CSV)?|UniquenessKeys(Baseline|Hashed))|Decode(Shuffled|Reviews)?|CrossObserve(Unique|Ref|Timeliness)|CrossMergeUnique)$' ./internal/dqbatch/
bench ocl "$oclout" -bench 'Benchmark(Eval(Interpreted|Compiled)|BatchCompiled(Rows)?)$' ./internal/ocl/ ./internal/dqbatch/
bench obs "$obsout" -bench 'BenchmarkBatch(Parallel8|Attributed8)$' ./internal/dqbatch/

mkdir -p "$hist"
stamp="$(date -u +%Y%m%dT%H%M%SZ)"
cp "$out" "$hist/${stamp}_batch.json"
cp "$oclout" "$hist/${stamp}_ocl.json"
cp "$obsout" "$hist/${stamp}_obs.json"
echo "archived under $hist/${stamp}_{batch,ocl,obs}.json" >&2
