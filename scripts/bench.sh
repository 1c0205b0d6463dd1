#!/bin/sh
# Benchmark harness. Runs three suites, each as one `go test -count 5`,
# and reduces each with scripts/bench.awk to per-benchmark medians and
# IQRs, the host's CPU count (nproc) and the suite's ratios:
#   - batch engine (internal/dqbatch: sequential, parallel at 1-8 workers,
#     vectorized, uniqueness, decode, file, uniqueness-key and per-check
#     cross-record runs) → BENCH_batch.json;
#   - OCL evaluation (interpreted vs compiled per expression shape, plus
#     BenchmarkBatchCompiled{,Rows}) → BENCH_ocl.json;
#   - attribution overhead (BenchmarkBatchParallel8 vs
#     BenchmarkBatchAttributed8 in one process, so both share the build,
#     CPU state and dataset) → BENCH_obs.json.
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
# go test writes to a file, not a pipe, so a failing benchmark fails the
# script; its output is then copied to stderr.
bench() {
	suite=$1 json=$2
	shift 2
	go test -run '^$' -benchmem -benchtime "$benchtime" -count "$count" "$@" > "$raw" ||
		{ cat "$raw" >&2; exit 1; }
	cat "$raw" >&2
	awk -f scripts/bench.awk -v suite="$suite" -v out="$json" -v prev="$prev" \
		-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v nproc="$nproc" \
		-v benchtime="$benchtime" -v count="$count" "$raw"
	echo "wrote $json" >&2
}

bench batch "$out" -bench 'Benchmark(Batch(Sequential|Parallel[0-9]+|Vectorized|Uniqueness(Bloom)?[0-9]+|File(CSV)?|UniquenessKeys(Baseline|Hashed))|Decode(Shuffled)?|CrossObserve(Unique|Ref|Timeliness))$' ./internal/dqbatch/
bench ocl "$oclout" -bench 'Benchmark(Eval(Interpreted|Compiled)|BatchCompiled(Rows)?)$' ./internal/ocl/ ./internal/dqbatch/
bench obs "$obsout" -bench 'BenchmarkBatch(Parallel8|Attributed8)$' ./internal/dqbatch/

mkdir -p "$hist"
stamp="$(date -u +%Y%m%dT%H%M%SZ)"
cp "$out" "$hist/${stamp}_batch.json"
cp "$oclout" "$hist/${stamp}_ocl.json"
cp "$obsout" "$hist/${stamp}_obs.json"
echo "archived under $hist/${stamp}_{batch,ocl,obs}.json" >&2
