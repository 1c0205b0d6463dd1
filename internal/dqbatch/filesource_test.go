// Golden parity for the zero-copy ingest path: the memory-mapped NDJSON
// source (fast flat-JSON parser, pipelined decode) must produce reports
// byte-identical to the bufio source on the same bytes — JSON and text, at
// 1 and 8 workers — and OpenFileSource must route every input shape to the
// right implementation (regular files to mmap, pipes and empty files to
// the portable fallback).
package dqbatch

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// trickyNDJSON extends the parity fixture with every shape that makes the
// fast flat-JSON parser bail to the canonical slow path: escapes, unicode,
// exotic numbers, duplicate keys, invalid UTF-8, structural junk. The
// mmap-vs-bufio comparison over it pins that the bail-out heuristics never
// change a decode outcome or an error text.
func trickyNDJSON() string {
	var b strings.Builder
	b.WriteString(parityNDJSON())
	lines := []string{
		`{}`,
		`{ "a" : "spaced" , "b" : "v" }`,
		`{"a": "quote \" inside", "b": "w"}`,
		`{"a": "escé", "b": "raw café"}`,
		`{"café": "non-ascii key", "a": "x"}`,
		`{"a": "tab\tand\nnewline"}`,
		"{\"a\": \"bad utf8 \xff\xfe\"}",
		`{"n": 0}`,
		`{"n": -0}`,
		`{"n": 0.125}`,
		`{"n": 1e3}`,
		`{"n": -2.5E-2}`,
		`{"n": 123456789012345678901234567890}`,
		`{"n": 999999999999999999}`,
		`{"n": 3.141592653589793}`,
		`{"a": true, "b": false}`,
		`{"a": 1, "a": 2}`,
		`{"a": null}`,
		`{"a": [1, 2]}`,
		`{"a": {"nested": true}}`,
		`{"a": "x",}`,
		`{"n": 01}`,
		`{"a": "x"} trailing`,
		`not json at all`,
		`{"a": "unterminated`,
		"   ",
		`{"b": "only-b"}`,
	}
	for i, l := range lines {
		b.WriteString(l)
		if i%5 == 4 {
			b.WriteString("\r\n")
		} else {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// runPair runs the same options over two sources and asserts byte-identical
// reports.
func runPair(t *testing.T, opts Options, mkA, mkB func() Source) (a, b *Result) {
	t.Helper()
	v := parityValidator(t)
	opts.Registry = obs.NewRegistry()
	a, err := Run(context.Background(), v, mkA(), opts)
	if err != nil {
		t.Fatalf("source A: %v", err)
	}
	b, err = Run(context.Background(), v, mkB(), opts)
	if err != nil {
		t.Fatalf("source B: %v", err)
	}
	normalize(a)
	normalize(b)
	assertIdenticalReports(t, a, b)
	return a, b
}

func TestMmapBufioGoldenParity(t *testing.T) {
	doc := trickyNDJSON()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			opts := Options{Workers: workers, ChunkSize: 64,
				CrossRecord: []dqruntime.StatefulCheck{
					UniquenessCheckForTest(),
				}}
			bufio, mm := runPair(t, opts,
				func() Source { return NewNDJSONSource(strings.NewReader(doc)) },
				func() Source { return NewMmapNDJSONSource([]byte(doc)) })
			if bufio.Records == 0 || bufio.Malformed == 0 || bufio.Failed == 0 {
				t.Fatalf("degenerate fixture: %+v", bufio)
			}
			_ = mm
		})
	}
}

// UniquenessCheckForTest keys the parity runs' cross-record state on two
// fields, so the multi-field scratch-buffer path runs under -race in the
// pipelined engine.
func UniquenessCheckForTest() dqruntime.StatefulCheck {
	return dqruntime.UniquenessCheck{Fields: []string{"a", "b"}}
}

// TestPipelinedSequentialParity pins the decode pool against its
// sequential oracle on the same mmap source: a pool of three decoding
// spans concurrently, with the sequencer's ordinal/diagnostic replay, must
// not change a byte of the report a single in-order decoder produces.
func TestPipelinedSequentialParity(t *testing.T) {
	doc := trickyNDJSON()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			v := parityValidator(t)
			opts := Options{Workers: workers, ChunkSize: 64, Registry: obs.NewRegistry()}
			opts.DecodeWorkers = 1
			seq, err := Run(context.Background(), v, NewMmapNDJSONSource([]byte(doc)), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.DecodeWorkers = 3
			pipe, err := Run(context.Background(), v, NewMmapNDJSONSource([]byte(doc)), opts)
			if err != nil {
				t.Fatal(err)
			}
			normalize(seq)
			normalize(pipe)
			assertIdenticalReports(t, seq, pipe)
		})
	}
}

// TestStreamSpanEdgeParity pins the streaming span producer against the
// mmap cutter on the same bytes, at 1 and 8 workers, with NDJSONSource
// fed through readers that return one byte, or half the bytes asked for,
// per Read. The documents outgrow the scanner's initial 64 KiB buffer and
// carry CRLF and blank lines and a final line without a newline. A line
// of exactly maxLineBytes decodes; one byte more is a hard error at that
// line, as is a failing reader, and both keep the report of the prefix
// before the error. The megabyte lines go through HalfReader only:
// bufio.Scanner re-searches its whole buffer after every Read, which is
// quadratic at one byte per Read.
func TestStreamSpanEdgeParity(t *testing.T) {
	head := trickyNDJSON() + "\n\n" + `{"a": "crlf", "b": "y"}` + "\r\n"
	tail := `{"a": "last", "b": "no newline"}`
	lineOf := func(n int) string { return `{"a": "` + strings.Repeat("x", n-9) + `"}` }
	errLine := fmt.Sprintf("line %d:", strings.Count(head, "\n")+1)
	boom := errors.New("boom")
	wraps := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	}
	cases := []struct {
		name, doc string
		readers   []string
		// ref is the document the mmap reference run reads (doc when
		// empty); fail is the error both sources must stop with.
		ref  string
		fail error
	}{
		{name: "shapes", doc: head + tail, readers: []string{"one-byte", "half"}},
		{name: "max-line", doc: head + lineOf(maxLineBytes) + "\n" + tail, readers: []string{"half"}},
		{name: "too-long", doc: head + lineOf(maxLineBytes+1) + "\n" + tail, readers: []string{"half"},
			ref: head, fail: bufio.ErrTooLong},
		{name: "read-error", doc: head, readers: []string{"one-byte", "half"}, fail: boom},
	}
	v := parityValidator(t)
	run := func(src Source, workers int) (*Result, error) {
		res, err := Run(context.Background(), v, src, Options{Workers: workers, ChunkSize: 64,
			Registry: obs.NewRegistry(), CrossRecord: []dqruntime.StatefulCheck{UniquenessCheckForTest()}})
		normalize(res)
		return res, err
	}
	for _, tc := range cases {
		for _, rd := range tc.readers {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers%d", tc.name, rd, workers), func(t *testing.T) {
					ref := tc.ref
					if ref == "" {
						ref = tc.doc
					}
					want, err := run(NewMmapNDJSONSource([]byte(ref)), workers)
					if err != nil {
						t.Fatal(err)
					}
					r := wraps[rd](strings.NewReader(tc.doc))
					if tc.fail == boom {
						r = io.MultiReader(r, iotest.ErrReader(boom))
					}
					got, err := run(NewNDJSONSource(r), workers)
					if tc.fail == nil && err != nil {
						t.Fatal(err)
					}
					if tc.fail != nil && (!errors.Is(err, tc.fail) || !strings.Contains(err.Error(), errLine)) {
						t.Fatalf("err = %v, want %v at %s", err, tc.fail, errLine)
					}
					if tc.fail == bufio.ErrTooLong {
						// The mmap cutter stops at the same line, same text.
						if _, mmErr := run(NewMmapNDJSONSource([]byte(tc.doc)), workers); mmErr == nil || mmErr.Error() != err.Error() {
							t.Fatalf("mmap error %v, stream error %v", mmErr, err)
						}
					}
					assertIdenticalReports(t, want, got)
				})
			}
		}
	}
}

// TestMmapSourceRowPath drains both sources through Next and compares
// record-for-record, error-for-error.
func TestMmapSourceRowPath(t *testing.T) {
	doc := trickyNDJSON()
	bufio := NewNDJSONSource(strings.NewReader(doc))
	mm := NewMmapNDJSONSource([]byte(doc))
	recA := make(dqruntime.Record, 8)
	recB := make(dqruntime.Record, 8)
	for i := 0; ; i++ {
		a, errA := bufio.Next(recA)
		b, errB := mm.Next(recB)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("record %d: errors diverged: bufio %v, mmap %v", i, errA, errB)
		}
		if errA != nil {
			var reA, reB *RecordError
			if errors.As(errA, &reA) != errors.As(errB, &reB) {
				t.Fatalf("record %d: error kinds diverged: %v vs %v", i, errA, errB)
			}
			if reA != nil {
				if reA.Line != reB.Line || reA.Error() != reB.Error() {
					t.Fatalf("record %d: record errors diverged: %v vs %v", i, reA, reB)
				}
				continue
			}
			if errA == io.EOF && errB == io.EOF {
				break
			}
			t.Fatalf("record %d: terminal errors: %v vs %v", i, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d diverged:\nbufio: %v\nmmap:  %v", i, a, b)
		}
		if bufio.ByteOffset() != mm.ByteOffset() {
			// Offsets agree on LF input; the fixture's CRLF lines are the
			// documented divergence (the scanner strips CR before counting),
			// so only require the mmap offset — an exact position — to be at
			// least the scanner's estimate.
			if mm.ByteOffset() < bufio.ByteOffset() {
				t.Fatalf("record %d: mmap offset %d behind scanner estimate %d",
					i, mm.ByteOffset(), bufio.ByteOffset())
			}
		}
	}
}

// TestMmapTooLongLine pins the bounded-memory contract on the zero-copy
// path: a line over maxLineBytes is a hard error naming the right line,
// on Next, NextBatch and NextSpan alike.
func TestMmapTooLongLine(t *testing.T) {
	doc := "{\"a\": \"ok\"}\n{\"a\": \"" + strings.Repeat("x", maxLineBytes) + "\"}\n"
	src := NewMmapNDJSONSource([]byte(doc))
	rec := make(dqruntime.Record, 2)
	if _, err := src.Next(rec); err != nil {
		t.Fatalf("first line: %v", err)
	}
	_, err := src.Next(rec)
	if err == nil || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("oversized line error = %v, want token too long", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("oversized line error names wrong line: %v", err)
	}

	src = NewMmapNDJSONSource([]byte(doc))
	var batch dqruntime.ColumnBatch
	n, err := src.NextBatch(&batch, 16, func(int64, error) {})
	if n != 1 || err != nil {
		t.Fatalf("NextBatch before oversized line: n=%d err=%v", n, err)
	}
	batch.Reset()
	if _, err = src.NextBatch(&batch, 16, func(int64, error) {}); err == nil {
		t.Fatal("NextBatch swallowed the oversized line")
	}

	src = NewMmapNDJSONSource([]byte(doc))
	sp, err := src.NextSpan(16)
	if err != nil || sp.FirstLine != 1 {
		t.Fatalf("NextSpan before oversized line: %+v, %v", sp, err)
	}
	if _, err = src.NextSpan(16); err == nil {
		t.Fatal("NextSpan swallowed the oversized line")
	}
}

func TestOpenFileSourceRouting(t *testing.T) {
	dir := t.TempDir()

	ndjson := filepath.Join(dir, "records.ndjson")
	if err := os.WriteFile(ndjson, []byte(`{"a": "1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, closer, err := OpenFileSource(ndjson, "")
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	if mmapAvailable {
		if _, ok := src.(*MmapNDJSONSource); !ok {
			t.Fatalf("regular NDJSON file routed to %T, want *MmapNDJSONSource", src)
		}
	} else if _, ok := src.(*NDJSONSource); !ok {
		t.Fatalf("no-mmap platform routed to %T, want *NDJSONSource", src)
	}
	rec, err := src.Next(make(dqruntime.Record, 2))
	if err != nil || rec["a"] != "1" {
		t.Fatalf("mmap-backed Next: %v, %v", rec, err)
	}

	// Extension picks CSV; the mapped bytes feed the CSV decoder.
	csvPath := filepath.Join(dir, "records.csv")
	if err := os.WriteFile(csvPath, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	csvSrc, csvClose, err := OpenFileSource(csvPath, "")
	if err != nil {
		t.Fatal(err)
	}
	defer csvClose()
	if _, ok := csvSrc.(*CSVSource); !ok {
		t.Fatalf("CSV file routed to %T, want *CSVSource", csvSrc)
	}
	rec, err = csvSrc.Next(make(dqruntime.Record, 2))
	if err != nil || rec["a"] != "1" || rec["b"] != "2" {
		t.Fatalf("CSV Next: %v, %v", rec, err)
	}

	// Zero-length input cannot be mapped and must fall back.
	empty := filepath.Join(dir, "empty.ndjson")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	emptySrc, emptyClose, err := OpenFileSource(empty, "")
	if err != nil {
		t.Fatal(err)
	}
	defer emptyClose()
	if _, ok := emptySrc.(*NDJSONSource); !ok {
		t.Fatalf("empty file routed to %T, want *NDJSONSource fallback", emptySrc)
	}
	if _, err := emptySrc.Next(make(dqruntime.Record, 1)); err != io.EOF {
		t.Fatalf("empty file Next = %v, want io.EOF", err)
	}

	if _, _, err := OpenFileSource(filepath.Join(dir, "missing.ndjson"), ""); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestFileSourcePipeFallsBack routes a non-regular file (a pipe — the
// stdin shape) to the streaming decoder: pipes cannot be mapped.
func TestFileSourcePipeFallsBack(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		w.WriteString(`{"a": "piped"}` + "\n")
		w.Close()
	}()
	src, closer, err := fileSource(r, "ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	if _, ok := src.(*NDJSONSource); !ok {
		t.Fatalf("pipe routed to %T, want *NDJSONSource fallback", src)
	}
	rec, err := src.Next(make(dqruntime.Record, 1))
	if err != nil || rec["a"] != "piped" {
		t.Fatalf("pipe Next: %v, %v", rec, err)
	}
}

// TestCountSourcePreservesSpans pins that the progress wrapper keeps a
// SpanSource's span path and still counts decoded records.
func TestCountSourcePreservesSpans(t *testing.T) {
	doc := `{"a": "1"}` + "\n" + `{"a": "2"}` + "\n"
	var p Progress
	src := CountSource(NewMmapNDJSONSource([]byte(doc)), &p)
	ssrc, ok := src.(SpanSource)
	if !ok {
		t.Fatalf("CountSource dropped SpanSource: %T", src)
	}
	sp, err := ssrc.CutSpan(nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	var batch dqruntime.ColumnBatch
	if n := ssrc.DecodeSpan(sp, &batch, func(int64, error) {}); n != 2 {
		t.Fatalf("DecodeSpan n = %d, want 2", n)
	}
	if p.Records() != 2 {
		t.Fatalf("progress records = %d, want 2", p.Records())
	}
	if p.Bytes() != int64(len(doc)) {
		t.Fatalf("progress bytes = %d, want %d", p.Bytes(), len(doc))
	}
}

// TestSpanCoverage pins span arithmetic: spans tile the input exactly,
// first lines are correct, and decode agrees with NextBatch.
func TestSpanCoverage(t *testing.T) {
	doc := trickyNDJSON()
	src := NewMmapNDJSONSource([]byte(doc))
	var total int
	var lastEnd int64
	line := int64(0)
	for {
		sp, err := src.NextSpan(7)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if sp.FirstLine != line+1 {
			t.Fatalf("span first line %d, want %d", sp.FirstLine, line+1)
		}
		line += int64(strings.Count(string(sp.Data), "\n"))
		if len(sp.Data) > 0 && sp.Data[len(sp.Data)-1] != '\n' {
			line++ // final unterminated line
		}
		var batch dqruntime.ColumnBatch
		total += decodeNDJSONSpan(sp, &batch, func(int64, error) {})
		lastEnd += int64(len(sp.Data))
	}
	if lastEnd != int64(len(doc)) {
		t.Fatalf("spans covered %d bytes of %d", lastEnd, len(doc))
	}

	other := NewMmapNDJSONSource([]byte(doc))
	var n int
	for {
		var batch dqruntime.ColumnBatch
		got, err := other.NextBatch(&batch, 64, func(int64, error) {})
		n += got
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != n {
		t.Fatalf("span decode produced %d rows, NextBatch %d", total, n)
	}
}
