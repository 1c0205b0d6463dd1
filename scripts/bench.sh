#!/bin/sh
# Benchmark harness. Three suites, one JSON data point each per CI run:
#   - batch engine (BenchmarkBatchSequential, BenchmarkBatchParallel{2,4,8},
#     BenchmarkBatchVectorized, the full-engine BenchmarkBatchVectorized8,
#     the cross-record BenchmarkBatchUniqueness{1,8} exact/Bloom pairs, the
#     zero-copy ingest pairs BenchmarkDecode{Bufio,Mmap} and
#     BenchmarkBatchFile{Bufio,Mmap}, and the uniqueness key-materialization
#     pair BenchmarkBatchUniquenessKeys{Baseline,Hashed})
#     → BENCH_batch.json: records/sec, allocs, stride-sampled p50/p99
#     latency, plus the vectorized-vs-row, parallel-vs-sequential,
#     uniqueness-vs-parallel, mmap-vs-bufio, bufio-vs-mmap decode allocs
#     and key-allocs-reduction ratios.
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
raw="$(mktemp)"
oclraw="$(mktemp)"
obsraw="$(mktemp)"
trap 'rm -f "$raw" "$oclraw" "$obsraw"' EXIT

go test -run '^$' -bench 'Benchmark(Batch(Sequential|Parallel[0-9]+|Vectorized[0-9]*|Uniqueness(Bloom)?[0-9]+|File(Bufio|Mmap)|UniquenessKeys(Baseline|Hashed))|Decode(Bufio|Mmap))$' \
	-benchmem -benchtime "$benchtime" -count 1 ./internal/dqbatch/ | tee "$raw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark(Batch|Decode)/ {
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
	print "  \"benchtime\": \"'"$benchtime"'\","
	print "  \"benchmarks\": ["
	for (i = 0; i < n; i++) print lines[i] (i < n - 1 ? "," : "")
	print "  ],"
	seq = rps["BenchmarkBatchSequential"]
	par = rps["BenchmarkBatchParallel8"]
	vec = rps["BenchmarkBatchVectorized"]
	vec8 = rps["BenchmarkBatchVectorized8"]
	u8 = rps["BenchmarkBatchUniqueness8"]
	ub8 = rps["BenchmarkBatchUniquenessBloom8"]
	printf "  \"speedup_parallel8_vs_sequential\": %.2f,\n", (seq > 0) ? par / seq : 0
	printf "  \"speedup_vectorized_vs_sequential\": %.2f,\n", (seq > 0) ? vec / seq : 0
	printf "  \"speedup_vectorized8_vs_sequential\": %.2f,\n", (seq > 0) ? vec8 / seq : 0
	printf "  \"uniqueness8_records_per_sec\": %.0f,\n", u8
	printf "  \"uniqueness_bloom8_records_per_sec\": %.0f,\n", ub8
	printf "  \"uniqueness8_vs_parallel8\": %.2f,\n", (par > 0) ? u8 / par : 0
	db = rps["BenchmarkDecodeBufio"]
	dm = rps["BenchmarkDecodeMmap"]
	fb = rps["BenchmarkBatchFileBufio"]
	fm = rps["BenchmarkBatchFileMmap"]
	ab = allocs["BenchmarkBatchUniquenessKeysBaseline"]
	ah = allocs["BenchmarkBatchUniquenessKeysHashed"]
	printf "  \"file_mmap_records_per_sec\": %.0f,\n", fm
	printf "  \"mmap_vs_bufio\": %.2f,\n", (db > 0) ? dm / db : 0
	printf "  \"file_mmap_vs_bufio\": %.2f,\n", (fb > 0) ? fm / fb : 0
	printf "  \"decode_bufio_vs_mmap_allocs\": %.2f,\n", (allocs["BenchmarkDecodeMmap"] > 0) ? allocs["BenchmarkDecodeBufio"] / allocs["BenchmarkDecodeMmap"] : 0
	printf "  \"uniqueness_key_allocs_reduction\": %.1f\n", (ah > 0) ? ab / ah : 0
	print "}"
}' "$raw" > "$out"

echo "wrote $out"

go test -run '^$' -bench 'BenchmarkEval(Interpreted|Compiled)$' -benchmem \
	-benchtime "$benchtime" -count 1 ./internal/ocl/ | tee "$oclraw"
go test -run '^$' -bench 'BenchmarkBatchCompiled(Rows)?$' -benchmem \
	-benchtime "$benchtime" -count 1 ./internal/dqbatch/ | tee -a "$oclraw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
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

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
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
