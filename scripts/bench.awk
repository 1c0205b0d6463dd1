# Reduces the output of one `go test -bench -count N` run to a BENCH_*.json
# document: per benchmark, in first-seen order, its sample count and, for
# every unit go test printed, the median and the interquartile range
# (<unit>_iqr: Q3 - Q1, quartiles interpolated between order statistics),
# then the suite's ratio keys, computed from medians. Numbers are plain
# decimals, never exponent notation.
#
# For the batch suite it also judges the run, printing one ::warning::
# line on stdout per finding (the JSON goes to the file named by out):
#   - a records/sec median below prev's by more than 10% of prev's median;
#   - a records/sec comparison it cannot judge, reported as unresolved
#     with both medians and IQRs, when 2 x the larger IQR of the two runs
#     exceeds that bound; a prev written without _iqr keys counts as IQR 0;
#   - a ratio key below its floor.
#
# Usage: awk -f scripts/bench.awk -v suite=batch|ocl|obs -v out=FILE \
#   -v date=... -v nproc=N -v benchtime=1s -v count=N [-v prev=FILE] RAW

/^cpu: / { sub(/^cpu: */, ""); cpu = $0 }

$1 ~ /^Benchmark/ && $2 ~ /^[0-9]+$/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # the -GOMAXPROCS suffix
	if (!(name in samples)) order[++names] = name
	k = ++samples[name]
	for (i = 3; i < NF; i += 2) {
		unit = $(i + 1)
		gsub(/\//, "_per_", unit)
		gsub(/[^A-Za-z0-9_]/, "_", unit)
		if (k == 1) units[name] = units[name] " " unit
		val[name, unit, k] = $i
	}
}

# quartiles sets q1, q2 and q3 of one benchmark's samples of one unit.
function quartiles(name, unit,   n, i, j, x, a) {
	n = samples[name]
	for (i = 1; i <= n; i++) {
		x = val[name, unit, i] + 0
		for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
	q1 = quantile(a, n, 0.25); q2 = quantile(a, n, 0.5); q3 = quantile(a, n, 0.75)
}

function quantile(a, n, p,   h, lo) {
	h = (n - 1) * p; lo = int(h)
	return lo + 1 < n ? a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1]) : a[n]
}

function num(x,   s) {
	s = sprintf("%.6g", x)
	if (s ~ /e\+/) return sprintf("%.0f", x)
	if (s ~ /e-/) { s = sprintf("%.12f", x); sub(/0+$/, "", s) }
	return s
}

function rps(bench) { return med["Benchmark" bench, "records_per_sec"] + 0 }
function ratio(a, b) { return b > 0 ? a / b : 0 }

# emit prints one top-level key, formatted by f, and keeps the printed value.
function emit(key, f, x, last) {
	kv[key] = sprintf(f, x)
	printf "  \"%s\": %s%s\n", key, kv[key], (last ? "" : ",") > out
}

function floor(key, min, why) {
	if (kv[key] + 0 < min) printf "::warning::%s is %s (< %s): %s\n", key, kv[key], min, why
}

# compare warns for each benchmark whose records/sec median regressed
# against the batch JSON prev, or whose spread is too wide to tell.
function compare(   line, name, pm, pi, cm, ci, bound, spread) {
	while ((getline line < prev) > 0) {
		if (!match(line, /"name": "[^"]+"/)) continue
		name = substr(line, RSTART + 9, RLENGTH - 10)
		if (!((name, "records_per_sec") in iqr) || !match(line, /"records_per_sec": [0-9.]+/)) continue
		pm = substr(line, RSTART + 19, RLENGTH - 19) + 0
		pi = match(line, /"records_per_sec_iqr": [0-9.]+/) ? substr(line, RSTART + 23, RLENGTH - 23) + 0 : 0
		cm = med[name, "records_per_sec"]; ci = iqr[name, "records_per_sec"]
		bound = 0.1 * pm
		spread = 2 * (pi > ci ? pi : ci)
		if (spread > bound)
			printf "::warning::%s records/sec unresolved: median %s (IQR %s) -> %s (IQR %s), 2 x the larger IQR exceeds the bound of %s\n",
				name, num(pm), num(pi), num(cm), num(ci), num(bound)
		else if (pm - cm > bound)
			printf "::warning::%s records/sec median fell %.1f%% (%s -> %s), beyond the bound of %s\n",
				name, (1 - cm / pm) * 100, num(pm), num(cm), num(bound)
	}
	close(prev)
}

END {
	printf "{\n  \"date\": \"%s\",\n  \"cpu\": \"%s\",\n  \"nproc\": %d,\n", date, cpu, nproc > out
	printf "  \"benchtime\": \"%s\",\n  \"count\": %d,\n  \"benchmarks\": [\n", benchtime, count > out
	for (b = 1; b <= names; b++) {
		name = order[b]
		line = "    {\"name\": \"" name "\", \"samples\": " samples[name]
		n = split(units[name], u, " ")
		for (j = 1; j <= n; j++) {
			quartiles(name, u[j])
			med[name, u[j]] = q2; iqr[name, u[j]] = q3 - q1
			line = line ", \"" u[j] "\": " num(q2) ", \"" u[j] "_iqr\": " num(q3 - q1)
		}
		print line "}" (b < names ? "," : "") > out
	}
	print "  ]," > out
	if (suite == "batch") {
		par8 = rps("BatchParallel8")
		emit("speedup_parallel8_vs_parallel1", "%.2f", ratio(par8, rps("BatchParallel1")))
		emit("speedup_vectorized_vs_sequential", "%.2f", ratio(rps("BatchVectorized"), rps("BatchSequential")))
		emit("uniqueness8_records_per_sec", "%.0f", rps("BatchUniqueness8"))
		emit("uniqueness_bloom8_records_per_sec", "%.0f", rps("BatchUniquenessBloom8"))
		emit("uniqueness8_vs_parallel8", "%.2f", ratio(rps("BatchUniqueness8"), par8))
		emit("file_records_per_sec", "%.0f", rps("BatchFile"))
		emit("file_csv_vs_ndjson", "%.2f", ratio(rps("BatchFileCSV"), rps("BatchFile")))
		emit("uniqueness_key_allocs_reduction", "%.1f", ratio(med["BenchmarkBatchUniquenessKeysBaseline", "allocs_per_op"],
			med["BenchmarkBatchUniquenessKeysHashed", "allocs_per_op"]), 1)
	} else if (suite == "ocl") {
		print "  \"speedups\": {" > out
		n = split("Simple ForAll AllInstances", shape, " ")
		for (i = 1; i <= n; i++)
			printf "    \"compiled_vs_interpreted_%s\": %.2f%s\n", shape[i],
				ratio(med["BenchmarkEvalInterpreted/" shape[i], "ns_per_op"], med["BenchmarkEvalCompiled/" shape[i], "ns_per_op"]),
				(i < n ? "," : "") > out
		print "  }" > out
	} else if (suite == "obs") {
		plain = rps("BatchParallel8"); attr = rps("BatchAttributed8")
		printf "  \"median_records_per_sec\": {\"parallel8\": %.0f, \"attributed8\": %.0f},\n", plain, attr > out
		emit("attribution_overhead_percent", "%.2f", plain > 0 ? (1 - attr / plain) * 100 : 0, 1)
	}
	print "}" > out
	if (suite != "batch") exit
	if (prev != "") compare()
	floor("speedup_parallel8_vs_parallel1", 1.0, "8 eval workers and 8 decoders cost more than they gain on this " nproc "-CPU host")
	floor("speedup_vectorized_vs_sequential", 1.0, "the columnar path ran slower than the row path")
	floor("uniqueness8_vs_parallel8", 0.5, "sharded key-set upkeep eats more than half the parallel-8 throughput")
	floor("file_csv_vs_ndjson", 0.8, "CSV parsing may have moved back onto the producer goroutine")
	floor("uniqueness_key_allocs_reduction", 10, "the hash-probe table materializes more than first-insert keys")
}
