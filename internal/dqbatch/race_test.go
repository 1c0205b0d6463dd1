// Race and lifecycle tests for the batch engine: the sharded aggregators
// must hold up under many workers (run these with -race, as
// scripts/check.sh does), the decode pool must never wedge, and
// cancellation mid-stream must tear every stage down — decoders included —
// before Run returns, without leaking goroutines.
package dqbatch_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	. "github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// generatorSource produces synthetic records forever (or until limit),
// counting how many it has emitted. Each record is one line holding its
// overall_evaluation, which DecodeSpan expands to the case-study fields.
// It never blocks, so the engine's cancellation path is what stops the
// stream.
type generatorSource struct {
	emitted atomic.Int64
	limit   int64 // <= 0 means unbounded
}

func (g *generatorSource) CutSpan(buf *[]byte, maxLines int) (Span, error) {
	b := (*buf)[:0]
	first := g.emitted.Load() + 1
	for i := 0; i < maxLines; i++ {
		n := g.emitted.Add(1)
		if g.limit > 0 && n > g.limit {
			break
		}
		b = strconv.AppendInt(b, n%9-4, 10) // -4..4: some out of [-3,3]
		b = append(b, '\n')
	}
	*buf = b
	if len(b) == 0 {
		return Span{}, io.EOF
	}
	return Span{Data: b, FirstLine: first}, nil
}

func (g *generatorSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, _ func(int64, error)) int {
	lines := strings.Split(strings.TrimSuffix(string(sp.Data), "\n"), "\n")
	for _, eval := range lines {
		dst.SetField("first_name", "A")
		dst.SetField("last_name", "B")
		dst.SetField("email_address", "a@b.co")
		dst.SetField("overall_evaluation", eval)
		dst.SetField("reviewer_confidence", "3")
		dst.EndRow()
	}
	return len(lines)
}

func TestRunManyWorkersAggregatesExactly(t *testing.T) {
	v := buildValidator(t)
	const n = 20000
	src := &generatorSource{limit: n}
	res, err := Run(context.Background(), v, src, Options{
		Workers: 16, ChunkSize: 64, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != n {
		t.Fatalf("records = %d, want %d", res.Records, n)
	}
	if res.Passed+res.Failed != n {
		t.Fatalf("passed %d + failed %d != %d", res.Passed, res.Failed, n)
	}
	if res.Failed == 0 {
		t.Fatal("generator emits out-of-range evaluations; some records must fail")
	}
	// Whatever the split, the sharded aggregators must not lose a check.
	var checks int64
	for _, cs := range res.Characteristics {
		checks += cs.Checks
	}
	if checks != 3*n { // completeness + 2 precision checks per record
		t.Fatalf("total checks = %d, want %d", checks, 3*n)
	}
}

func TestRunCancellationMidStreamStopsAndReportsPartial(t *testing.T) {
	v := buildValidator(t)
	src := &generatorSource{} // unbounded
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let the pool get going, then pull the plug.
		for src.emitted.Load() < 10000 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	res, err := Run(ctx, v, src, Options{Workers: 8, Registry: obs.NewRegistry()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Records == 0 {
		t.Fatalf("partial result = %+v", res)
	}
	if res.Records > src.emitted.Load() {
		t.Fatalf("validated %d records but only %d were emitted", res.Records, src.emitted.Load())
	}
}

func TestRunCancellationLeaksNoGoroutines(t *testing.T) {
	v := buildValidator(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		src := &generatorSource{}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for src.emitted.Load() < 2000 {
				time.Sleep(50 * time.Microsecond)
			}
			cancel()
		}()
		if _, err := Run(ctx, v, src, Options{Workers: 8, Registry: obs.NewRegistry()}); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v", i, err)
		}
		cancel()
	}
	// The pool goroutines exit before Run returns; allow the canceller
	// goroutines a moment to notice and die.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > %d+2 after cancellations\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunSourceErrorAbortsWithPartial(t *testing.T) {
	v := buildValidator(t)
	// 20 good lines, then a scanner-level failure (line too long).
	var b strings.Builder
	for i := 0; i < 20; i++ {
		b.WriteString(`{"first_name":"A","last_name":"B","email_address":"a@b.co","overall_evaluation":"1","reviewer_confidence":"3"}` + "\n")
	}
	b.WriteString(strings.Repeat("x", 2<<20) + "\n")
	res, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader(b.String())), Options{
		Workers: 4, Registry: obs.NewRegistry(),
	})
	if err == nil {
		t.Fatal("want a source error")
	}
	if res.Records != 20 {
		t.Fatalf("partial records = %d, want 20", res.Records)
	}
}

// TestRunDecodePoolNoDeadlock drives the decode pool at its tightest: one
// eval worker, three decoders and one-line chunks. The producer takes a
// free chunk before cutting its span, so the chunk the sequencer waits for
// is always already in the pipeline and never stuck behind decoders of
// later spans that hold every free chunk. A watchdog turns a hang into a
// failure with the goroutine dump.
func TestRunDecodePoolNoDeadlock(t *testing.T) {
	doc := []byte(strings.Repeat(`{"a":"x","b":"y","n":1}`+"\n", 400))
	v := buildValidator(t)
	for i := 0; i < 20; i++ {
		done := make(chan error, 1)
		go func() {
			res, err := Run(context.Background(), v, NewNDJSONSource(bytes.NewReader(doc)), Options{
				Workers: 1, DecodeWorkers: 3, ChunkSize: 1, Registry: obs.NewRegistry(),
			})
			if err == nil && res.Records != 400 {
				err = fmt.Errorf("records = %d, want 400", res.Records)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("run %d hung\n%s", i, buf[:runtime.Stack(buf, true)])
		}
	}
}

// slowDecodeSource cuts an endless stream of one-record spans; decoding the
// sixth sleeps, long enough that a Run returning without joining its
// decode pool leaves that decode running (the use-after-munmap shape: the
// caller unmaps the file as soon as Run returns).
type slowDecodeSource struct {
	line     int64
	inflight atomic.Int32
	sleeping chan struct{}
}

func (s *slowDecodeSource) CutSpan(*[]byte, int) (Span, error) {
	s.line++
	return Span{Data: []byte("{}\n"), FirstLine: s.line}, nil
}

func (s *slowDecodeSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, _ func(int64, error)) int {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if sp.FirstLine == 6 {
		close(s.sleeping)
		time.Sleep(300 * time.Millisecond)
	}
	dst.EndRow()
	return 1
}

// slowBatchValidator scores batches slowly, so the eval side backs up and
// the stages ahead of it are mid-flight when the batch is cancelled.
type slowBatchValidator struct{ *dqruntime.Validator }

func (v slowBatchValidator) ValidateBatch(b *dqruntime.ColumnBatch, rep *dqruntime.BatchReport) {
	time.Sleep(20 * time.Millisecond)
	v.Validator.ValidateBatch(b, rep)
}

// TestRunJoinsDecodePoolOnCancel cancels while a decode is still running
// and requires Run to have waited for it: no decode may be in flight once
// Run returns.
func TestRunJoinsDecodePoolOnCancel(t *testing.T) {
	src := &slowDecodeSource{sleeping: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-src.sleeping
		cancel()
	}()
	_, err := Run(ctx, slowBatchValidator{buildValidator(t)}, src, Options{
		Workers: 1, DecodeWorkers: 2, ChunkSize: 1, Registry: obs.NewRegistry(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := src.inflight.Load(); n != 0 {
		t.Fatalf("Run returned with %d decodes still running", n)
	}
}
