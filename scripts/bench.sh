#!/bin/sh
# Benchmark harness. Three suites, one JSON data point each per CI run,
# each recording the host's CPU count (nproc) next to its ratios:
#   - batch engine (BenchmarkBatchSequential, the full pipeline over
#     in-memory NDJSON at BenchmarkBatchParallel{1,2,4,8},
#     BenchmarkBatchVectorized, the cross-record
#     BenchmarkBatchUniqueness{1,8} exact/Bloom pairs, the ingest runs
#     BenchmarkDecode and BenchmarkDecodeShuffled (keys in a random order
#     per record), the file runs BenchmarkBatchFile{,CSV}, the uniqueness
#     key-materialization pair BenchmarkBatchUniquenessKeys{Baseline,Hashed},
#     and the per-check BenchmarkCrossObserve{Unique,Ref,Timeliness}: one
#     cross-record check's state folding 100k prebuilt rows, in ns/record)
#     → BENCH_batch.json: records/sec, allocs, stride-sampled p50/p99
#     latency, plus the vectorized-vs-row, parallel-8-vs-parallel-1,
#     uniqueness-vs-parallel, CSV-file-vs-NDJSON-file and
#     key-allocs-reduction ratios.
# Each run is also archived under artifacts/bench/<timestamp>_{batch,ocl,obs}.json
# so scripts/bench_compare.sh can flag throughput regressions against the
# previous entry.
#   - OCL evaluation (BenchmarkEvalInterpreted vs BenchmarkEvalCompiled per
#     expression shape, plus the end-to-end BenchmarkBatchCompiled)
#     → BENCH_ocl.json: ns/op, allocs/op and compiled-vs-interpreted
#     speedup per shape.
#   - observability overhead (BenchmarkBatchParallel8 vs
#     BenchmarkBatchAttributed8, run back to back in one process)
#     → BENCH_obs.json: throughput of the quality-attributed batch path
#     relative to the uninstrumented one, as an overhead percentage.
# Usage: scripts/bench.sh [batch-output.json] [ocl-output.json] [obs-output.json]
# BENCHTIME overrides the go test -benchtime (default 1s).
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_batch.json}"
oclout="${2:-BENCH_ocl.json}"
obsout="${3:-BENCH_obs.json}"
benchtime="${BENCHTIME:-1s}"
nproc="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
raw="$(mktemp)"
oclraw="$(mktemp)"
obsraw="$(mktemp)"
trap 'rm -f "$raw" "$oclraw" "$obsraw"' EXIT

go test -run '^$' -bench 'Benchmark(Batch(Sequential|Parallel[0-9]+|Vectorized|Uniqueness(Bloom)?[0-9]+|File(CSV)?|UniquenessKeys(Baseline|Hashed))|Decode(Shuffled)?|CrossObserve(Unique|Ref|Timeliness))$' \
	-benchmem -benchtime "$benchtime" -count 1 ./internal/dqbatch/ | tee "$raw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v nproc="$nproc" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark(Batch|Decode|CrossObserve)/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
	line = "    {\"name\": \"" name "\", \"iterations\": " $2
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		gsub(/\//, "_per_", unit)
		gsub(/[^A-Za-z0-9_]/, "_", unit)
		line = line ", \"" unit "\": " $i
		if (unit == "records_per_sec") rps[name] = $i
		if (unit == "allocs_per_op") allocs[name] = $i
	}
	lines[n++] = line "}"
}
END {
	print "{"
	print "  \"date\": \"" date "\","
	print "  \"cpu\": \"" cpu "\","
	print "  \"nproc\": " nproc ","
	print "  \"benchtime\": \"'"$benchtime"'\","
	print "  \"benchmarks\": ["
	for (i = 0; i < n; i++) print lines[i] (i < n - 1 ? "," : "")
	print "  ],"
	seq = rps["BenchmarkBatchSequential"]
	par1 = rps["BenchmarkBatchParallel1"]
	par = rps["BenchmarkBatchParallel8"]
	vec = rps["BenchmarkBatchVectorized"]
	u8 = rps["BenchmarkBatchUniqueness8"]
	ub8 = rps["BenchmarkBatchUniquenessBloom8"]
	printf "  \"speedup_parallel8_vs_parallel1\": %.2f,\n", (par1 > 0) ? par / par1 : 0
	printf "  \"speedup_vectorized_vs_sequential\": %.2f,\n", (seq > 0) ? vec / seq : 0
	printf "  \"uniqueness8_records_per_sec\": %.0f,\n", u8
	printf "  \"uniqueness_bloom8_records_per_sec\": %.0f,\n", ub8
	printf "  \"uniqueness8_vs_parallel8\": %.2f,\n", (par > 0) ? u8 / par : 0
	fn = rps["BenchmarkBatchFile"]
	fc = rps["BenchmarkBatchFileCSV"]
	ab = allocs["BenchmarkBatchUniquenessKeysBaseline"]
	ah = allocs["BenchmarkBatchUniquenessKeysHashed"]
	printf "  \"file_records_per_sec\": %.0f,\n", fn
	printf "  \"file_csv_vs_ndjson\": %.2f,\n", (fn > 0) ? fc / fn : 0
	printf "  \"uniqueness_key_allocs_reduction\": %.1f\n", (ah > 0) ? ab / ah : 0
	print "}"
}' "$raw" > "$out"

echo "wrote $out"

go test -run '^$' -bench 'BenchmarkEval(Interpreted|Compiled)$' -benchmem \
	-benchtime "$benchtime" -count 1 ./internal/ocl/ | tee "$oclraw"
go test -run '^$' -bench 'BenchmarkBatchCompiled(Rows)?$' -benchmem \
	-benchtime "$benchtime" -count 1 ./internal/dqbatch/ | tee -a "$oclraw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v nproc="$nproc" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark(Eval|BatchCompiled)/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
	line = "    {\"name\": \"" name "\", \"iterations\": " $2
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		if (unit == "ns/op") ns[name] = $i
		gsub(/\//, "_per_", unit)
		gsub(/[^A-Za-z0-9_]/, "_", unit)
		line = line ", \"" unit "\": " $i
	}
	lines[n++] = line "}"
}
END {
	print "{"
	print "  \"date\": \"" date "\","
	print "  \"cpu\": \"" cpu "\","
	print "  \"nproc\": " nproc ","
	print "  \"benchtime\": \"'"$benchtime"'\","
	print "  \"benchmarks\": ["
	for (i = 0; i < n; i++) print lines[i] (i < n - 1 ? "," : "")
	print "  ],"
	print "  \"speedups\": {"
	shapes = "Simple ForAll AllInstances"
	m = split(shapes, shape, " ")
	for (i = 1; i <= m; i++) {
		interp = ns["BenchmarkEvalInterpreted/" shape[i]]
		comp = ns["BenchmarkEvalCompiled/" shape[i]]
		speedup = (comp > 0) ? interp / comp : 0
		printf "    \"compiled_vs_interpreted_%s\": %.2f%s\n", shape[i], speedup, (i < m ? "," : "")
	}
	print "  }"
	print "}"
}' "$oclraw" > "$oclout"

echo "wrote $oclout"

# Instrumented vs uninstrumented: both in one go test process so they share
# the same build, CPU state and dataset; the delta is attribution alone.
# -count 3 with best-of taken below, because on shared machines scheduler
# noise between two 8-worker runs dwarfs the microseconds of attribution.
go test -run '^$' -bench 'BenchmarkBatch(Parallel8|Attributed8)$' \
	-benchtime "$benchtime" -count 3 ./internal/dqbatch/ | tee "$obsraw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v nproc="$nproc" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkBatch/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
	line = "    {\"name\": \"" name "\", \"iterations\": " $2
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		gsub(/\//, "_per_", unit)
		gsub(/[^A-Za-z0-9_]/, "_", unit)
		line = line ", \"" unit "\": " $i
		if (unit == "records_per_sec" && $i > rps[name]) rps[name] = $i
	}
	lines[n++] = line "}"
}
END {
	print "{"
	print "  \"date\": \"" date "\","
	print "  \"cpu\": \"" cpu "\","
	print "  \"nproc\": " nproc ","
	print "  \"benchtime\": \"'"$benchtime"'\","
	print "  \"benchmarks\": ["
	for (i = 0; i < n; i++) print lines[i] (i < n - 1 ? "," : "")
	print "  ],"
	plain = rps["BenchmarkBatchParallel8"]
	attr = rps["BenchmarkBatchAttributed8"]
	overhead = (plain > 0) ? (1 - attr / plain) * 100 : 0
	printf "  \"best_records_per_sec\": {\"parallel8\": %.0f, \"attributed8\": %.0f},\n", plain, attr
	printf "  \"attribution_overhead_percent\": %.2f\n", overhead
	print "}"
}' "$obsraw" > "$obsout"

echo "wrote $obsout"

# Archive this run so the next one has a baseline: bench_compare.sh reads
# the newest non-identical entry and warns on records/sec regressions.
hist="${BENCH_HISTORY:-artifacts/bench}"
mkdir -p "$hist"
stamp="$(date -u +%Y%m%dT%H%M%SZ)"
cp "$out" "$hist/${stamp}_batch.json"
cp "$oclout" "$hist/${stamp}_ocl.json"
cp "$obsout" "$hist/${stamp}_obs.json"
echo "archived under $hist/${stamp}_{batch,ocl,obs}.json"
