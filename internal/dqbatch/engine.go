package dqbatch

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// Validating is the validation dependency: one call scores a whole
// ColumnBatch. *dqruntime.Validator implements it, scoring checks without
// ApplyBatch through a RowView record map; an Enforcer's Validator() is
// the usual way to obtain one. The engine calls it concurrently from every
// worker, each with its own report, so implementations must be safe for
// concurrent reads (the stock checks are value types).
type Validating interface {
	ValidateBatch(b *dqruntime.ColumnBatch, rep *dqruntime.BatchReport)
}

// Options tunes a batch run. The zero value is ready to use.
type Options struct {
	// Workers is the validation goroutine count; 0 means GOMAXPROCS.
	Workers int
	// ChunkSize is how many records (input lines for NDJSON, records and
	// blank lines for CSV) travel per work item; chunking amortizes channel
	// handoff to nothing per record. 0 means 256.
	ChunkSize int
	// MaxExemplars caps retained failures per characteristic; 0 means 3,
	// negative means none.
	MaxExemplars int
	// DecodeWorkers sizes the decode pool between the producer and the
	// eval workers. The producer goroutine only cuts raw spans of whole
	// records, and this many goroutines decode them, so parsing overlaps
	// evaluation for NDJSON and CSV alike. 1 decodes in input order on one
	// goroutine — the sequential oracle. 0 or negative means GOMAXPROCS:
	// decoding a record costs tens of times what evaluating it does, so
	// the decode pool is what keeps every core busy, and a decoder left
	// idle costs only one more chunk on the free list.
	DecodeWorkers int
	// MaxDecodeErrors caps the decode errors retained (with line numbers)
	// in Result.DecodeErrors; 0 means 10, negative means none. Malformed
	// counts every skipped record regardless of the cap.
	MaxDecodeErrors int
	// Registry receives dqbatch_records_total{outcome} and
	// dqbatch_batch_seconds; nil records them into a registry local to the
	// call, which nothing reads.
	Registry *obs.Registry
	// Quality, when non-nil, receives the batch's merged per-characteristic
	// attribution: after the shards reduce, each characteristic's exact
	// count/failure/sum/min/max block is folded into the series labeled
	// {characteristic, context} in one Merge call. The shards never touch
	// the shared set, so the hot path is unchanged and the race-tested
	// exact aggregation stays exact.
	Quality *obs.SeriesSet
	// Context labels the Quality series (dataset, tenant, pipeline stage);
	// empty means "batch".
	Context string
	// CrossRecord are dataset-level stateful checks (uniqueness,
	// referential consistency, timeliness). Each check mints one private
	// state per worker; the engine merges them after the pool drains — the
	// same shard-then-reduce shape as the per-characteristic statistics —
	// and appends one CrossFinding per check to Result.CrossRecords.
	CrossRecord []dqruntime.StatefulCheck
}

// DecodeError is one retained malformed-input diagnostic.
type DecodeError struct {
	// Line is the 1-based input file line where the offending record
	// starts.
	Line int64 `json:"line"`
	// Error is the decode failure text.
	Error string `json:"error"`
}

// Result summarizes one batch run. All scores and latencies are merged
// across workers; Characteristics is sorted by characteristic name.
type Result struct {
	// Records counts successfully decoded records; Passed/Failed split
	// them by overall validation outcome. Malformed counts input records
	// that failed to decode and were skipped.
	Records   int64 `json:"records"`
	Passed    int64 `json:"passed"`
	Failed    int64 `json:"failed"`
	Malformed int64 `json:"malformed"`
	// DecodeErrors detail the first malformed records (line numbers and
	// causes), capped by Options.MaxDecodeErrors. On cancellation the
	// partial result keeps whatever was captured so far.
	DecodeErrors []DecodeError `json:"decode_errors,omitempty"`
	// Workers is the pool size the batch ran with.
	Workers int `json:"workers"`
	// Seconds is the wall-clock batch duration; RecordsPerSec the
	// resulting throughput.
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
	// LatencyP50/LatencyP99 are per-record validation latency percentiles
	// in seconds, from a bounded reservoir holding one sample per chunk:
	// its ValidateBatch time divided by its rows. 0 when no record was
	// validated.
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	// Characteristics is the per-characteristic roll-up.
	Characteristics []CharacteristicStats `json:"characteristics"`
	// CrossRecords are the dataset-level findings of Options.CrossRecord,
	// in check declaration order.
	CrossRecords []dqruntime.CrossFinding `json:"cross_records,omitempty"`
	// Duration is Seconds as a time.Duration, for callers doing math.
	Duration time.Duration `json:"-"`
}

// colChunk is the unit of work every pipeline stage hands on: a recycled
// column batch plus the raw span it decodes from. idx is the producer's
// sequence number (the sequencer restores input order from it), base the
// 1-based ordinal of the first row, and bads buffers the chunk's
// malformed-line diagnostics until the sequencer replays them in line
// order. buf is the chunk's own span storage for streaming sources, so
// raw bytes in flight are bounded by the free list too.
type colChunk struct {
	idx   int64
	base  int64
	batch dqruntime.ColumnBatch
	span  Span
	buf   []byte
	bads  []lineErr
}

// lineErr is one malformed line captured off the sequencer goroutine, held
// until the sequencer replays it.
type lineErr struct {
	line int64
	err  error
}

func (c *colChunk) bad(line int64, err error) { c.bads = append(c.bads, lineErr{line: line, err: err}) }

// reset readies a recycled chunk to be filled as the idx-th of a run.
func (c *colChunk) reset(idx int64) {
	c.idx = idx
	c.batch.Reset()
	c.bads = c.bads[:0]
}

// colChunkPool recycles chunks (and the column buffers and span storage
// inside them) across Runs, so repeated batches — benchmark iterations, a
// server validating dataset after dataset — stop paying the pool-priming
// allocations every time.
var colChunkPool sync.Pool

func getColChunk() *colChunk {
	if c, ok := colChunkPool.Get().(*colChunk); ok {
		return c
	}
	return &colChunk{}
}

// defaultChunkSize is Options.ChunkSize's default.
const defaultChunkSize = 256

// sampleCap bounds each worker's latency reservoir.
const sampleCap = 4096

// batchBuckets are dqbatch_batch_seconds bounds: batches run longer than
// request latencies, so the tail extends into minutes.
var batchBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// positiveOr resolves a "0 or negative means def" option.
func positiveOr(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

// capOr resolves a "0 means def, negative means none" option.
func capOr(n, def int) int {
	if n == 0 {
		return def
	}
	return max(n, 0)
}

// Run streams records from src through one pipeline, validating each with
// v and merging per-characteristic statistics. A producer goroutine cuts
// src into raw spans of whole records, one per recycled chunk, in input
// order; a decode pool of Options.DecodeWorkers decodes them; a sequencer
// restores input order — assigning record ordinals and replaying
// malformed-line diagnostics — and a pool of eval workers scores each
// chunk as columns with one ValidateBatch call. Reports are
// byte-identical across sources and decode pool sizes, and across worker
// counts with one exception until score sums are exact: at more than one
// worker, a mean_score whose scores are not dyadic fractions can differ
// in its last bits, because the order in which shards add scores follows
// scheduling. Run honors ctx: on cancellation the producer stops, the
// chunks already in flight finish, and the partial Result — every record
// read so far — comes back with ctx's error. Every stage has exited
// before Run returns, so the caller may release the source (unmap a file)
// at once. Memory is bounded by the chunk free list, never by input size.
func Run(ctx context.Context, v Validating, src Source, opts Options) (*Result, error) {
	workers := positiveOr(opts.Workers, runtime.GOMAXPROCS(0))
	decoders := positiveOr(opts.DecodeWorkers, runtime.GOMAXPROCS(0))
	chunkSize := positiveOr(opts.ChunkSize, defaultChunkSize)
	maxExemplars := capOr(opts.MaxExemplars, 3)
	maxDecode := capOr(opts.MaxDecodeErrors, 10)
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	const recordsHelp = "Batch-validated records, by outcome (pass, fail, error=malformed input)"
	passC := reg.Counter("dqbatch_records_total", recordsHelp, obs.Labels{"outcome": "pass"})
	failC := reg.Counter("dqbatch_records_total", recordsHelp, obs.Labels{"outcome": "fail"})
	errC := reg.Counter("dqbatch_records_total", recordsHelp, obs.Labels{"outcome": "error"})
	batchH := reg.Histogram("dqbatch_batch_seconds", "Wall-clock batch validation duration", batchBuckets, nil)

	_, span := obs.StartSpan(ctx, "dqbatch.run")
	start := time.Now()

	// crossStates[c][w] is check c's private state for worker w; workers
	// write only their own column, and the reduce folds each row
	// single-threaded, so cross-record checks ride the shard-then-merge
	// discipline without new synchronization.
	crossStates := make([][]dqruntime.CheckState, len(opts.CrossRecord))
	for i, sc := range opts.CrossRecord {
		crossStates[i] = sc.NewStates(workers, maxExemplars)
	}

	// Every chunk in flight came from free, so it bounds memory: one per
	// goroutine that holds a chunk while working (producer, decoders, eval
	// workers) plus one in hand-off. free has room for all of them, so
	// returning a chunk never blocks. Past the producer no stage waits on
	// anything but its upstream channel, so on cancellation the chunks
	// already cut drain through decode and eval and the partial Result
	// covers exactly a prefix of the input.
	free := make(chan *colChunk, workers+decoders+2)
	for i := 0; i < cap(free); i++ {
		free <- getColChunk()
	}
	// One slot per consumer goroutine lets each stage run a chunk ahead
	// of the next without growing memory past the free list.
	todo := make(chan *colChunk, decoders)
	decoded := make(chan *colChunk, decoders)
	work := make(chan *colChunk, workers)
	// wg joins every stage: its Wait is the happens-before edge that
	// publishes readErr (the producer's) and malformed/decodeErrs (the
	// sequencer's) to the epilogue.
	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	var readErr error
	var malformed int64
	var decodeErrs []DecodeError

	spawn(func() { // producer: the only stage that watches ctx
		defer close(todo)
		for idx := int64(0); ctx.Err() == nil; idx++ {
			// Taking the chunk before cutting its span keeps chunks
			// entering the pipeline in input order: the chunk the sequencer
			// waits for is always already past the free list.
			var c *colChunk
			select {
			case c = <-free:
			case <-ctx.Done():
				return
			}
			c.reset(idx)
			var err error
			c.span, err = src.CutSpan(&c.buf, chunkSize)
			todo <- c
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
		}
	})

	var decoding sync.WaitGroup
	decoding.Add(decoders)
	for i := 0; i < decoders; i++ {
		spawn(func() {
			defer decoding.Done()
			for c := range todo {
				if len(c.span.Data) > 0 {
					src.DecodeSpan(c.span, &c.batch, c.bad)
				}
				decoded <- c
			}
		})
	}
	spawn(func() { decoding.Wait(); close(decoded) })

	spawn(func() { // sequencer
		defer close(work)
		pending := make(map[int64]*colChunk, cap(free))
		var next, ordinal int64
		for dc := range decoded {
			pending[dc.idx] = dc
			for c := pending[next]; c != nil; c = pending[next] {
				delete(pending, next)
				next++
				for _, b := range c.bads {
					malformed++
					errC.Inc()
					if len(decodeErrs) < maxDecode {
						decodeErrs = append(decodeErrs, DecodeError{Line: b.line, Error: b.err.Error()})
					}
				}
				c.base = ordinal + 1
				ordinal += int64(c.batch.Rows())
				if c.batch.Rows() == 0 {
					free <- c
				} else {
					work <- c
				}
			}
		}
	})

	shards := make([]*shard, workers)
	for i := range shards {
		shards[i] = newShard()
		ev := &evaluator{v: v, sh: shards[i], maxExemplars: maxExemplars}
		for _, states := range crossStates {
			ev.states = append(ev.states, states[i])
		}
		spawn(func() { // eval worker
			for c := range work {
				pass, fail := ev.score(c)
				passC.Add(pass)
				failC.Add(fail)
				free <- c
			}
		})
	}
	wg.Wait()
	for len(free) > 0 {
		colChunkPool.Put(<-free)
	}

	dur := time.Since(start)
	batchH.Observe(dur.Seconds())
	res := &Result{
		Malformed:    malformed,
		DecodeErrors: decodeErrs,
		Workers:      workers,
		Seconds:      dur.Seconds(),
		Duration:     dur,
	}
	res.reduce(shards, crossStates, maxExemplars)
	if opts.Quality != nil {
		res.attribute(opts.Quality, opts.Context)
	}

	span.SetAttr("records", int(res.Records))
	span.SetAttr("workers", workers)
	if res.Failed > 0 {
		span.SetAttr("failed", int(res.Failed))
	}
	span.End()

	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, readErr
}

// evaluator is one eval worker's state: its shard, its column of the
// cross-record states, and a batch report reused across chunks.
type evaluator struct {
	v            Validating
	sh           *shard
	states       []dqruntime.CheckState
	maxExemplars int
	rep          dqruntime.BatchReport
}

// score validates one chunk into the worker's shard and cross-record
// states and returns its pass and fail counts.
func (e *evaluator) score(c *colChunk) (pass, fail uint64) {
	t0 := time.Now()
	e.v.ValidateBatch(&c.batch, &e.rep)
	e.sh.sample(time.Since(t0).Seconds()/float64(c.batch.Rows()), sampleCap)
	for _, st := range e.states {
		st.ObserveBatch(c.base, &c.batch)
	}
	return e.sh.observe(c.base, &e.rep, e.maxExemplars)
}

// reduce folds the per-worker shards and cross-record states into res.
// The cross-record states merge in worker-index order; each state's Merge
// is order-independent in effect, so any worker count and any chunk
// assignment produce the same findings.
func (res *Result) reduce(shards []*shard, crossStates [][]dqruntime.CheckState, maxExemplars int) {
	var samples []float64
	res.Characteristics, samples = mergeShards(shards, maxExemplars)
	for _, sh := range shards {
		res.Records += sh.records
		res.Passed += sh.passed
		res.Failed += sh.failed
	}
	if res.Seconds > 0 {
		res.RecordsPerSec = float64(res.Records) / res.Seconds
	}
	sort.Float64s(samples)
	res.LatencyP50 = percentile(samples, 50)
	res.LatencyP99 = percentile(samples, 99)
	for _, states := range crossStates {
		merged := states[0]
		for _, o := range states[1:] {
			merged.Merge(o)
		}
		res.CrossRecords = append(res.CrossRecords, merged.Finding())
	}
}

// attribute folds the merged statistics into the quality series labeled
// {characteristic, context}; context "" means "batch".
func (res *Result) attribute(q *obs.SeriesSet, context string) {
	if context == "" {
		context = "batch"
	}
	for _, cs := range res.Characteristics {
		q.Series(obs.Labels{
			"characteristic": string(cs.Characteristic),
			"context":        context,
		}).Merge(uint64(cs.Checks), uint64(cs.Checks-cs.Passed),
			cs.SumScore, cs.MinScore, cs.MaxScore)
	}
	// Each cross-record finding is one dataset-level measurement of its
	// characteristic: one check execution with the finding's score.
	for _, f := range res.CrossRecords {
		var failed uint64
		if !f.Passed {
			failed = 1
		}
		q.Series(obs.Labels{
			"characteristic": string(f.Characteristic),
			"context":        context,
		}).Merge(1, failed, f.Score, f.Score, f.Score)
	}
}

// percentile returns the p-th percentile of an ascending sample set; 0
// when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// WriteText renders the result as a human-readable report.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "batch: %d records in %s (%.0f records/sec, %d workers)\n",
		r.Records, r.Duration.Round(time.Millisecond), r.RecordsPerSec, r.Workers)
	fmt.Fprintf(w, "  passed %d, failed %d, malformed %d\n", r.Passed, r.Failed, r.Malformed)
	if len(r.DecodeErrors) > 0 {
		fmt.Fprintf(w, "  decode errors (%d of %d malformed):\n", len(r.DecodeErrors), r.Malformed)
		for _, de := range r.DecodeErrors {
			fmt.Fprintf(w, "      line %d: %s\n", de.Line, de.Error)
		}
	}
	if r.LatencyP50 > 0 {
		fmt.Fprintf(w, "  per-record latency p50 %s, p99 %s\n",
			time.Duration(r.LatencyP50*float64(time.Second)).Round(time.Nanosecond),
			time.Duration(r.LatencyP99*float64(time.Second)).Round(time.Nanosecond))
	}
	for _, cs := range r.Characteristics {
		fmt.Fprintf(w, "  %-18s %d/%d checks passed, min %.2f, mean %.3f\n",
			cs.Characteristic, cs.Passed, cs.Checks, cs.MinScore, cs.MeanScore)
		for _, ex := range cs.Exemplars {
			fmt.Fprintf(w, "      record %d: %s", ex.Record, ex.Check)
			for _, d := range ex.Details {
				fmt.Fprintf(w, " — %s", d)
			}
			fmt.Fprintln(w)
		}
	}
	for _, f := range r.CrossRecords {
		verdict := "passed"
		if !f.Passed {
			verdict = fmt.Sprintf("%d violations", f.Violations)
		}
		approx := ""
		if f.Approximate {
			approx = " (approximate)"
		}
		fmt.Fprintf(w, "  %-18s %s: %s over %d records, score %.3f%s\n",
			f.Characteristic, f.Check, verdict, f.Records, f.Score, approx)
		for _, d := range f.Details {
			fmt.Fprintf(w, "      %s\n", d)
		}
	}
}
