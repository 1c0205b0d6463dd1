// Benchmarks for the batch engine: a single-threaded ValidateInto loop
// over pre-decoded maps as the evaluation baseline, then the full pipeline
// at 1/2/4/8 workers over the same dataset as in-memory NDJSON. Each
// reports records/sec plus stride-sampled per-record latency percentiles;
// scripts/bench.sh parses them into BENCH_batch.json so the throughput
// trajectory has data points.
package dqbatch

import (
	"context"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/transform"
)

// benchRecords is the per-iteration dataset size: big enough that chunk
// handoff amortizes to noise, small enough for quick -benchtime runs.
const benchRecords = 50000

func benchValidator(b *testing.B) *dqruntime.Validator {
	b.Helper()
	e := easychair.MustBuildModel()
	dqsr, _, err := transform.RunDQR2DQSR(e.Model)
	if err != nil {
		b.Fatal(err)
	}
	enf, err := dqruntime.BuildFromDQSR(dqsr)
	if err != nil {
		b.Fatal(err)
	}
	return enf.Validator()
}

// benchDataset mixes ~10% failing records into the case-study shape so
// the failure path (detail allocation, exemplar capture) is exercised.
func benchDataset() []dqruntime.Record {
	recs := make([]dqruntime.Record, benchRecords)
	for i := range recs {
		eval := "2"
		if i%10 == 0 {
			eval = "9"
		}
		recs[i] = dqruntime.Record{
			"first_name":          "Grace",
			"last_name":           "Hopper",
			"email_address":       "grace@navy.mil",
			"overall_evaluation":  eval,
			"reviewer_confidence": "3",
		}
	}
	return recs
}

// BenchmarkBatchSequential is the baseline: one goroutine, one reused
// Report, no engine machinery.
func BenchmarkBatchSequential(b *testing.B) {
	v := benchValidator(b)
	recs := benchDataset()
	rep := &dqruntime.Report{}
	var samples []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, r := range recs {
			if j%64 == 0 {
				t0 := time.Now()
				v.ValidateInto(r, rep)
				samples = append(samples, time.Since(t0).Seconds())
			} else {
				v.ValidateInto(r, rep)
			}
			if rep.Passed() && j%10 == 0 {
				b.Fatal("failing record passed")
			}
		}
	}
	b.StopTimer()
	reportThroughput(b, int64(b.N)*benchRecords)
	sort.Float64s(samples)
	b.ReportMetric(percentile(samples, 50)*1e9, "p50_ns")
	b.ReportMetric(percentile(samples, 99)*1e9, "p99_ns")
}

// benchOCLValidator builds a validator whose checks are compiled OCL
// programs (one per case-study field constraint).
func benchOCLValidator(b *testing.B) *dqruntime.Validator {
	b.Helper()
	exprs := []string{
		"not first_name.oclIsUndefined() and not last_name.oclIsUndefined()",
		"not email_address.oclIsUndefined()",
		"overall_evaluation.oclIsUndefined() or (-3 <= overall_evaluation and overall_evaluation <= 3)",
		"reviewer_confidence.oclIsUndefined() or (0 <= reviewer_confidence and reviewer_confidence <= 5)",
	}
	v := dqruntime.NewValidator("compiled bench")
	for _, e := range exprs {
		chk, err := dqruntime.NewOCLCheck(iso25012.Consistency, e)
		if err != nil {
			b.Fatal(err)
		}
		v.Add(chk)
	}
	return v
}

// benchVectorized drives an engine-less single-goroutine ValidateBatch
// loop over 256-row batches columnarized up front — the columnar mirror of
// BenchmarkBatchSequential's pre-decoded map loop.
func benchVectorized(b *testing.B, v *dqruntime.Validator) {
	recs := benchDataset()
	var chunks []*dqruntime.ColumnBatch
	for lo := 0; lo < benchRecords; lo += 256 {
		c := &dqruntime.ColumnBatch{}
		c.Columnarize(recs[lo:min(lo+256, benchRecords)])
		chunks = append(chunks, c)
	}
	rep := &dqruntime.BatchReport{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci, c := range chunks {
			v.ValidateBatch(c, rep)
			for r := 0; r < rep.Rows(); r++ {
				if rep.RowPassed(r) == ((ci*256+r)%10 == 0) {
					b.Fatalf("record %d: passed = %v", ci*256+r, rep.RowPassed(r))
				}
			}
		}
	}
	b.StopTimer()
	reportThroughput(b, int64(b.N)*benchRecords)
}

// BenchmarkBatchCompiled runs the dataset through the compiled-OCL
// validator on the vectorized path: expressions compile once, then
// Program.EvalBoolBatch sweeps each column batch with a single reused
// frame and per-batch boxed columns.
func BenchmarkBatchCompiled(b *testing.B) {
	benchVectorized(b, benchOCLValidator(b))
}

// BenchmarkBatchCompiledRows is the row-path baseline for
// BenchmarkBatchCompiled: the same compiled-OCL validator fed one record
// map at a time.
func BenchmarkBatchCompiledRows(b *testing.B) {
	v := benchOCLValidator(b)
	recs := benchDataset()
	rep := &dqruntime.Report{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, r := range recs {
			v.ValidateInto(r, rep)
			if rep.Passed() == (j%10 == 0) {
				b.Fatalf("record %d: passed = %v", j, rep.Passed())
			}
		}
	}
	b.StopTimer()
	reportThroughput(b, int64(b.N)*benchRecords)
}

// BenchmarkBatchVectorized is the stock case-study validator on the
// engine-less vectorized path — compare with BenchmarkBatchSequential for
// the columnar-vs-row speedup.
func BenchmarkBatchVectorized(b *testing.B) {
	benchVectorized(b, benchValidator(b))
}

func BenchmarkBatchParallel1(b *testing.B) { benchParallel(b, 1) }
func BenchmarkBatchParallel2(b *testing.B) { benchParallel(b, 2) }
func BenchmarkBatchParallel4(b *testing.B) { benchParallel(b, 4) }
func BenchmarkBatchParallel8(b *testing.B) { benchParallel(b, 8) }

// BenchmarkBatchAttributed8 is BenchmarkBatchParallel8 with quality
// attribution switched on: the merged per-characteristic stats also land
// in a windowed SeriesSet after the shard merge. scripts/bench.sh compares
// the two into BENCH_obs.json — attribution happens once per
// characteristic per run, not per record, so the overhead should be noise.
func BenchmarkBatchAttributed8(b *testing.B) {
	quality := obs.NewSeriesSet(time.Minute, 60)
	last := benchRun(b, benchNDJSONDoc(benchDataset()),
		Options{Workers: 8, DecodeWorkers: 8, Quality: quality, Context: "bench"})
	reportLatency(b, last)
}

// benchParallel runs the pipeline with workers eval workers and as many
// decoders, so BenchmarkBatchParallel1 is the one-goroutine-per-stage
// oracle the others scale from.
func benchParallel(b *testing.B, workers int) {
	last := benchRun(b, benchNDJSONDoc(benchDataset()), Options{Workers: workers, DecodeWorkers: workers})
	reportLatency(b, last)
}

// benchRun runs the full engine over an in-memory NDJSON document through
// MmapNDJSONSource, the source `dqwebre batch -in file` reads with, checks
// every result and returns the last.
func benchRun(b *testing.B, doc []byte, opts Options) *Result {
	v := benchValidator(b)
	opts.Registry = obs.NewRegistry()
	var last *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), v, NewMmapNDJSONSource(doc), opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Records != benchRecords || res.Failed != benchRecords/10 {
			b.Fatalf("result = %+v", res)
		}
		last = res
	}
	b.StopTimer()
	reportThroughput(b, int64(b.N)*benchRecords)
	return last
}

// reportLatency attaches the last run's sampled latency percentiles.
func reportLatency(b *testing.B, last *Result) {
	b.ReportMetric(last.LatencyP50*1e9, "p50_ns")
	b.ReportMetric(last.LatencyP99*1e9, "p99_ns")
}

// benchUniquenessDataset is benchDataset plus an id column with ~10%
// duplicate keys, so the uniqueness state's hot insert path sees both the
// new-key and the repeat-key branch.
func benchUniquenessDataset() []dqruntime.Record {
	recs := benchDataset()
	distinct := benchRecords * 9 / 10
	for i, r := range recs {
		r["id"] = "id-" + strconv.Itoa(i%distinct)
	}
	return recs
}

// benchUniqueness runs BenchmarkBatchParallelN's pipeline with a
// uniqueness cross-record check riding along; maxExact -1 keeps the exact
// sets, a small positive cap forces the Bloom mode from the first chunks.
func benchUniqueness(b *testing.B, workers, maxExact int) {
	last := benchRun(b, benchNDJSONDoc(benchUniquenessDataset(), "id"), Options{
		Workers:       workers,
		DecodeWorkers: workers,
		CrossRecord: []dqruntime.StatefulCheck{
			dqruntime.UniquenessCheck{Fields: []string{"id"}, MaxExact: maxExact, BloomBits: 1 << 20},
		},
	})
	if len(last.CrossRecords) != 1 || last.CrossRecords[0].Violations == 0 {
		b.Fatalf("cross findings = %+v", last.CrossRecords)
	}
}

func BenchmarkBatchUniqueness1(b *testing.B)      { benchUniqueness(b, 1, -1) }
func BenchmarkBatchUniqueness8(b *testing.B)      { benchUniqueness(b, 8, -1) }
func BenchmarkBatchUniquenessBloom1(b *testing.B) { benchUniqueness(b, 1, 1024) }
func BenchmarkBatchUniquenessBloom8(b *testing.B) { benchUniqueness(b, 8, 1024) }

// reportThroughput attaches records/sec over the timed section.
func reportThroughput(b *testing.B, records int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(records)/s, "records/sec")
	}
}
