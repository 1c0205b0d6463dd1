package main

import (
	"bytes"
	"context"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/modeldriven/dqwebre/internal/cli"
	"github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	idq "github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/transform"
	"github.com/modeldriven/dqwebre/internal/uml"
	"github.com/modeldriven/dqwebre/internal/webre"
	"github.com/modeldriven/dqwebre/internal/xmi"
)

// chunkRows is the engine's default records-per-chunk, used by the
// single-threaded stage decomposition so its chunks match the engine's.
const chunkRows = 256

// batchWorkload is batch-file (mmap ingest, nproc workers, no
// cross-record checks) or batch-stream-cross (bufio ingest from a
// non-seekable reader, one worker, uniqueness + referential + timeliness).
type batchWorkload struct {
	stream  bool
	spec    recordSpec
	workers int
	want    truth

	model, data, papers string
	enf                 *dqruntime.Enforcer
	report              bytes.Buffer
}

func newBatchFile(skew int64) *batchWorkload {
	b := &batchWorkload{
		workers: runtime.NumCPU(),
		spec: recordSpec{Records: 200_000, Malformed: 400, Missing: 6000, OutOfRange: 4000,
			Papers: 5000},
	}
	b.want = b.spec.truth()
	b.want.Malformed += skew
	return b
}

func newBatchStream(skew int64) *batchWorkload {
	b := &batchWorkload{
		stream:  true,
		workers: 1,
		spec: recordSpec{Records: 100_000, Malformed: 200, Missing: 3000, OutOfRange: 2000,
			Emails: 90_000, Papers: 5000, Dangling: 1500, Stale: 1200, Future: 300},
	}
	b.want = b.spec.truth()
	b.want.Malformed += skew
	return b
}

// writeModel serializes the EasyChair DQ_WebRE requirements model to XMI,
// the file every batch and server set-up loads.
func writeModel(dir string, sum hash.Hash) (string, error) {
	e, err := easychair.BuildModel()
	if err != nil {
		return "", err
	}
	data, err := xmi.Marshal(e.Model.Model)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "easychair.xmi")
	return path, createHashed(path, sum, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func (b *batchWorkload) prepare(dir string, seed int64, sum hash.Hash) error {
	rng := rand.New(rand.NewSource(seed))
	var err error
	if b.model, err = writeModel(dir, sum); err != nil {
		return err
	}
	b.data = filepath.Join(dir, "reviews.ndjson")
	if err := createHashed(b.data, sum, func(w io.Writer) error { return writeRecords(w, b.spec, rng) }); err != nil {
		return err
	}
	if b.stream {
		b.papers = filepath.Join(dir, "papers.ndjson")
		return createHashed(b.papers, sum, func(w io.Writer) error { return writePapers(w, b.spec.Papers, rng) })
	}
	return nil
}

// setup is model file → enforcer, plus opening the record source the way
// the CLI does for this input shape.
func (b *batchWorkload) setup() (func(), error) {
	enf, err := cli.LoadEnforcer(b.model)
	if err != nil {
		return nil, err
	}
	b.enf = enf
	_, closeIn, err := b.open()
	if err != nil {
		return nil, err
	}
	return func() {}, closeIn()
}

// open opens the record source: mmap through OpenFileSource, or the
// stdin-style bufio decoder over a reader that hides everything but Read.
func (b *batchWorkload) open() (dqbatch.Source, func() error, error) {
	if !b.stream {
		return dqbatch.OpenFileSource(b.data, "ndjson")
	}
	f, err := os.Open(b.data)
	if err != nil {
		return nil, nil, err
	}
	return dqbatch.NewNDJSONSource(struct{ io.Reader }{f}), f.Close, nil
}

// crossChecks builds the stream workload's dataset-level checks, reading
// the reference set the way `dqwebre batch -ref` does.
func (b *batchWorkload) crossChecks(ctx context.Context) ([]dqruntime.StatefulCheck, error) {
	f, err := os.Open(b.papers)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keys, err := dqbatch.BuildKeySet(ctx, dqbatch.NewNDJSONSource(f), []string{"paper_id"})
	if err != nil {
		return nil, err
	}
	return statefulChecks(keys), nil
}

// statefulChecks are the stream workload's dataset-level checks over the
// paper reference set keys.
func statefulChecks(keys map[string]struct{}) []dqruntime.StatefulCheck {
	return []dqruntime.StatefulCheck{
		dqruntime.UniquenessCheck{Fields: []string{"email_address"}},
		dqruntime.ReferentialCheck{Fields: []string{"paper_id"}, Ref: keys, RefName: "papers.ndjson"},
		dqruntime.TimelinessCheck{Field: "submitted_at", Windows: freshness, Now: func() time.Time { return evalNow }},
	}
}

func (b *batchWorkload) run(p *phase, deadline time.Time, tr *tracer) load {
	var l load
	for first := true; first || time.Now().Before(deadline); first = false {
		p.begin()
		res, err := b.once(tr)
		wall, cpu, stolen := p.end()
		l.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: batch: %v\n", err)
			l.failed++
			continue
		}
		if msg := b.check(res); msg != "" {
			fmt.Fprintf(os.Stderr, "perfbench: wrong report: %s\n", msg)
			l.failed++
		}
		l.ops += res.Records
		l.segs = append(l.segs, segment{ops: res.Records, wall: wall, cpu: cpu,
			lat: []sample{{ms(wall), stolen}}, stolen: stolen})
	}
	return l
}

// once is one batch user's request: input file → rendered JSON report.
func (b *batchWorkload) once(tr *tracer) (*dqbatch.Result, error) {
	ctx := context.Background()
	root := tr.id()
	t0 := time.Now()
	src, closeIn, err := b.open()
	if err != nil {
		return nil, err
	}
	defer closeIn()
	t1 := time.Now()
	tr.child("dqbatch.open", root, t0, t1)
	var cross []dqruntime.StatefulCheck
	if b.stream {
		if cross, err = b.crossChecks(ctx); err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.child("dqbatch.refset_build", root, t1, t2)
		t1 = t2
	}
	res, err := dqbatch.Run(ctx, b.enf.Validator(), src, dqbatch.Options{
		Workers:     b.workers,
		CrossRecord: cross,
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	tr.child("dqbatch.run", root, t1, t2)
	b.report.Reset()
	if err := dqbatch.RenderReport(&b.report, res, "json"); err != nil {
		return nil, err
	}
	t3 := time.Now()
	tr.child("dqbatch.render", root, t2, t3)
	tr.add(root, "batch.report", 0, t0, t3)
	return res, nil
}

// check compares a report with the generator's ground truth; "" is a
// match.
func (b *batchWorkload) check(res *dqbatch.Result) string {
	w := b.want
	if res.Records != w.Records || res.Passed != w.Passed || res.Failed != w.Failed || res.Malformed != w.Malformed {
		return fmt.Sprintf("records/passed/failed/malformed %d/%d/%d/%d, want %d/%d/%d/%d",
			res.Records, res.Passed, res.Failed, res.Malformed, w.Records, w.Passed, w.Failed, w.Malformed)
	}
	if !b.stream {
		if len(res.CrossRecords) != 0 {
			return "unexpected cross-record findings"
		}
		return ""
	}
	return checkCross(res.CrossRecords, w)
}

// checkCross compares the stream workload's three findings with the
// planted duplicates, dangling references and untimely records.
func checkCross(fs []dqruntime.CrossFinding, w truth) string {
	if len(fs) != 3 {
		return fmt.Sprintf("%d cross-record findings, want 3", len(fs))
	}
	want := []int64{w.Duplicates, w.Dangling, w.Untimely}
	for i, f := range fs {
		if f.Approximate || f.Violations != want[i] || f.Records != w.Records {
			return fmt.Sprintf("%s: %d violations over %d records (approximate %v), want %d over %d",
				f.Check, f.Violations, f.Records, f.Approximate, want[i], w.Records)
		}
	}
	return ""
}

func (b *batchWorkload) layers(tr *tracer, out *metricSet) bool {
	ok := loadLayers(b.model, out)
	data, err := os.ReadFile(b.data)
	mustf(err, "reading %s", b.data)
	var cross []dqruntime.StatefulCheck
	if b.stream {
		cross, err = b.crossChecks(context.Background())
		mustf(err, "reading the reference set")
	}
	ing := decompose(data, b.enf.Validator(), b.stream, cross, b.want)
	ok = ok && ing.ok
	runMs := median(tr.durations("dqbatch.run", time.Millisecond))
	out.set("dqbatch.open_ms", median(tr.durations("dqbatch.open", time.Millisecond)), "ms")
	ing.report(out, runMs)
	out.set("dqbatch.run_ms", runMs, "ms")
	out.set("dqbatch.render_ms", median(tr.durations("dqbatch.render", time.Millisecond)), "ms")
	out.set("dqbatch.report_bytes", float64(b.report.Len()), "bytes")
	if b.stream {
		out.set("dqbatch.refset_build_ms", median(tr.durations("dqbatch.refset_build", time.Millisecond)), "ms")
	}
	return ok
}

// loadLayers times the three steps of cli.LoadEnforcer one by one: XMI
// parsing, the DQR→DQSR transformation and enforcer assembly.
func loadLayers(model string, out *metricSet) bool {
	data, err := os.ReadFile(model)
	mustf(err, "reading %s", model)
	idq.Metamodel()
	opts := xmi.Options{Profiles: []*uml.Profile{webre.Profile(), idq.Profile()}}
	var unmarshal, dqr2dqsr, build []float64
	for i := 0; i < setupReps; i++ {
		var m, dqsr *uml.Model
		unmarshal = append(unmarshal, ms(timeCall(func() { m, err = xmi.Unmarshal(data, opts) })))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: xmi.Unmarshal: %v\n", err)
			return false
		}
		dqr2dqsr = append(dqr2dqsr, ms(timeCall(func() { dqsr, _, err = transform.RunDQR2DQSR(idq.WrapModel(m)) })))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: RunDQR2DQSR: %v\n", err)
			return false
		}
		build = append(build, ms(timeCall(func() { _, err = dqruntime.BuildFromDQSR(dqsr) })))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: BuildFromDQSR: %v\n", err)
			return false
		}
	}
	out.set("xmi.unmarshal_ms", median(unmarshal), "ms")
	out.set("transform.dqr2dqsr_ms", median(dqr2dqsr), "ms")
	out.set("dqruntime.build_enforcer_ms", median(build), "ms")
	return true
}

// ingest is the single-threaded stage decomposition of one input: each
// engine stage driven on its own over the same bytes.
type ingest struct {
	ok      bool
	records int64
	// stage totals over the whole input
	scan, decode, eval time.Duration
	decodeAllocs       uint64
	evalAllocs         uint64
	malformed          int64
	stream             bool
	observe            []time.Duration // per cross-record check
	merge              time.Duration
}

// decompose drives the ingest and eval layers single-threaded: the mmap
// scanner and span decoder (or, for stream, the bufio decoder), then
// ValidateBatch, then — for stream — each cross-record check's
// ObserveBatch and the shard Merge + Finding.
func decompose(data []byte, v *dqruntime.Validator, stream bool, checks []dqruntime.StatefulCheck, want truth) ingest {
	in := ingest{ok: true, stream: stream}
	mm := dqbatch.NewMmapNDJSONSource(data)
	var bads int64 // malformed lines seen by every pass so far
	bad := func(int64, error) { bads++ }
	batch := &dqruntime.ColumnBatch{}
	var spans []dqbatch.Span
	// decodeAll calls each with every decoded chunk, in input order.
	decodeAll := func(each func(base int64, b *dqruntime.ColumnBatch)) {
		base := int64(1)
		if stream {
			src := dqbatch.NewNDJSONSource(bytes.NewReader(data))
			for {
				batch.Reset()
				n, err := src.NextBatch(batch, chunkRows, bad)
				if n > 0 {
					each(base, batch)
					base += int64(n)
				}
				if err == io.EOF {
					return
				}
				mustf(err, "decoding")
			}
		}
		for _, sp := range spans {
			batch.Reset()
			n := mm.DecodeSpan(sp, batch, bad)
			each(base, batch)
			base += int64(n)
		}
	}

	if !stream {
		in.scan = timeCall(func() {
			for {
				sp, err := mm.NextSpan(chunkRows)
				if err == io.EOF {
					return
				}
				mustf(err, "scanning")
				spans = append(spans, sp)
			}
		})
	}

	m0 := mallocs()
	in.decode = timeCall(func() {
		decodeAll(func(_ int64, b *dqruntime.ColumnBatch) { in.records += int64(b.Rows()) })
	})
	in.decodeAllocs = mallocs() - m0
	in.malformed = bads
	if in.malformed != want.Malformed || in.records != want.Records {
		fmt.Fprintf(os.Stderr, "perfbench: decode saw %d records and %d malformed lines, want %d and %d\n",
			in.records, in.malformed, want.Records, want.Malformed)
		in.ok = false
	}

	rep := &dqruntime.BatchReport{}
	var failed int64
	m0 = mallocs()
	decodeAll(func(_ int64, b *dqruntime.ColumnBatch) {
		t0 := time.Now()
		v.ValidateBatch(b, rep)
		in.eval += time.Since(t0)
		for r := 0; r < rep.Rows(); r++ {
			if !rep.RowPassed(r) {
				failed++
			}
		}
	})
	in.evalAllocs = mallocs() - m0 - in.decodeAllocs
	if failed != want.Failed {
		fmt.Fprintf(os.Stderr, "perfbench: ValidateBatch failed %d rows, want %d\n", failed, want.Failed)
		in.ok = false
	}

	if len(checks) > 0 {
		states := make([][]dqruntime.CheckState, len(checks))
		for i, c := range checks {
			states[i] = c.NewStates(2, 3)
		}
		in.observe = make([]time.Duration, len(checks))
		chunk := 0
		decodeAll(func(base int64, b *dqruntime.ColumnBatch) {
			for i := range checks {
				t0 := time.Now()
				states[i][chunk%2].ObserveBatch(base, b)
				in.observe[i] += time.Since(t0)
			}
			chunk++
		})
		findings := make([]dqruntime.CrossFinding, len(checks))
		in.merge = timeCall(func() {
			for i := range checks {
				states[i][0].Merge(states[i][1])
				findings[i] = states[i][0].Finding()
			}
		})
		if msg := checkCross(findings, want); msg != "" {
			fmt.Fprintf(os.Stderr, "perfbench: merged findings: %s\n", msg)
			in.ok = false
		}
	}
	return in
}

// report sets the ingest layer metrics; runMs is the engine's wall time
// on the same input, the base of stage_overlap.
func (in ingest) report(out *metricSet, runMs float64) {
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(in.records) }
	perN := func(n uint64) float64 { return float64(n) / float64(in.records) }
	stages := in.scan + in.decode + in.eval
	if in.stream {
		out.set("dqbatch.decode_stream_ns_per_record", per(in.decode), "ns")
		out.set("dqbatch.decode_stream_allocs_per_record", perN(in.decodeAllocs), "count")
		for i, name := range []string{"unique", "ref", "timeliness"} {
			out.set("dqruntime."+name+"_observe_ns_per_record", per(in.observe[i]), "ns")
			stages += in.observe[i]
		}
		out.set("dqruntime.cross_merge_ms", ms(in.merge), "ms")
	} else {
		out.set("dqbatch.scan_ns_per_record", per(in.scan), "ns")
		out.set("dqbatch.decode_ns_per_record", per(in.decode), "ns")
		out.set("dqbatch.decode_allocs_per_record", perN(in.decodeAllocs), "count")
	}
	out.set("dqbatch.malformed", float64(in.malformed), "count")
	out.set("dqruntime.eval_ns_per_record", per(in.eval), "ns")
	out.set("dqruntime.eval_allocs_per_record", perN(in.evalAllocs), "count")
	if runMs > 0 {
		out.set("dqbatch.stage_overlap", ms(stages)/runMs, "ratio")
	}
}
