// Golden parity for NDJSON ingest: the same bytes read whole or a byte
// or a few bytes per Read, decoded in input order or by a pool, must
// produce byte-identical reports — JSON and text, at 1 and 8 workers —
// and OpenFileSource must route every file to the streaming source of its
// format.
package dqbatch

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// trickyNDJSON extends the parity fixture with every shape that makes the
// fast flat-JSON parser bail to the canonical slow path: escapes, unicode,
// exotic numbers, duplicate keys, invalid UTF-8, structural junk. The
// parity runs over it pin that neither the bail-out heuristics nor the
// read and decode schedule change a decode outcome or an error text.
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

// UniquenessCheckForTest keys the parity runs' cross-record state on two
// fields, so the multi-field scratch-buffer path runs under -race in the
// pipelined engine.
func UniquenessCheckForTest() dqruntime.StatefulCheck {
	return dqruntime.UniquenessCheck{Fields: []string{"a", "b"}}
}

// TestPipelinedSequentialParity pins the decode pool against its
// sequential oracle on the same bytes: a pool of three decoding
// spans concurrently, with the sequencer's ordinal/diagnostic replay, must
// not change a byte of the report a single in-order decoder produces.
func TestPipelinedSequentialParity(t *testing.T) {
	doc := trickyNDJSON()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			v := parityValidator(t)
			opts := Options{Workers: workers, ChunkSize: 64, Registry: obs.NewRegistry()}
			opts.DecodeWorkers = 1
			seq, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader(doc)), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.DecodeWorkers = 3
			pipe, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader(doc)), opts)
			if err != nil {
				t.Fatal(err)
			}
			normalize(seq)
			normalize(pipe)
			assertIdenticalReports(t, seq, pipe)
		})
	}
}

// TestStreamSpanEdgeParity pins the span cutter's Read boundaries: at 1
// and 8 workers, NDJSONSource fed through readers that return one byte,
// or half the bytes asked for, per Read must report what it reports over
// one whole strings.Reader of the same bytes. The documents outgrow the
// scanner's initial 64 KiB buffer and carry CRLF and blank lines and a
// final line without a newline. A line of exactly maxLineBytes decodes;
// one byte more is a hard error at that line, as is a failing reader, and
// both keep the report of the prefix before the error. The megabyte lines
// go through HalfReader only: bufio.Scanner re-searches its whole buffer
// after every Read, which is quadratic at one byte per Read.
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
		// ref is the document the whole-reader reference run reads (doc
		// when empty); fail is the error both runs over doc must stop with.
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
					want, err := run(NewNDJSONSource(strings.NewReader(ref)), workers)
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
						// A whole reader stops at the same line, same text.
						if _, wholeErr := run(NewNDJSONSource(strings.NewReader(tc.doc)), workers); wholeErr == nil || wholeErr.Error() != err.Error() {
							t.Fatalf("whole-reader error %v, %s error %v", wholeErr, rd, err)
						}
					}
					assertIdenticalReports(t, want, got)
				})
			}
		}
	}
}

// FuzzSpanReport holds NDJSON ingest to one report on any bytes: the
// same document read one byte per Read (stdin through a pipe) and decoded
// in input order (DecodeWorkers 1, the sequential oracle), and read from
// one whole reader through poisonSource and decoded in a pool of three,
// must render byte-identical JSON and text reports and stop with the same
// error text, at any chunk size from 1 to 64 and any eval worker count
// from 1 to 8. The poisoned spans catch a cell kept past its chunk; the
// referential check builds its two-field keys in a scratch buffer, and
// its tally keeps dangling keys across chunks.
// parityValidator scores only 0, ½ and 1, whose sums are exact in any
// order, so the worker count cannot change a mean.
func FuzzSpanReport(f *testing.F) {
	for i, line := range trickyLines() {
		f.Add(line, uint8(i), uint8(i/3))
	}
	for i, doc := range []string{
		"",
		"\n\r\n\r\r\n",
		`{"a": "x", "b": "y"}` + "\n" + `{"a": "x", "b": "y"}` + "\r\n\n{bad\n" + `{"a": "z"}`,
		`{"a": "1", "n": 2, "opt": 1}` + "\r\n" + `{"a": null}` + "\n" + `{"a": "1", "b": "1"}` + "\r",
		`{"email": "u@example.org", "ts": "2026-01-01T00:00:00Z", "a": "q", "b": "r"}`,
	} {
		f.Add([]byte(doc), uint8(i*13), uint8(i))
	}
	v := parityValidator(f)
	ref := dqruntime.ReferentialCheck{Fields: []string{"a", "b"},
		Ref: map[string]struct{}{"x\x1fy": {}}, RefName: "refs"}
	f.Fuzz(func(t *testing.T, doc []byte, chunk, workers uint8) {
		opts := Options{Workers: 1 + int(workers%8), ChunkSize: 1 + int(chunk%64),
			CrossRecord: []dqruntime.StatefulCheck{UniquenessCheckForTest(), ref}}
		run := func(src Source, decoders int) (*Result, string) {
			opts.DecodeWorkers = decoders
			opts.Registry = obs.NewRegistry()
			res, err := Run(context.Background(), v, src, opts)
			normalize(res)
			if err != nil {
				return res, err.Error()
			}
			return res, ""
		}
		want, wantErr := run(NewNDJSONSource(iotest.OneByteReader(bytes.NewReader(doc))), 1)
		got, gotErr := run(poisonSource{NewNDJSONSource(bytes.NewReader(doc))}, 3)
		if wantErr != gotErr {
			t.Fatalf("terminal errors diverged: one-byte %q, whole %q", wantErr, gotErr)
		}
		assertIdenticalReports(t, want, got)
	})
}

// FuzzCSVReport holds CSV ingest to one report on any bytes: the same
// document read one byte per Read (stdin through a pipe) and decoded in
// input order (DecodeWorkers 1, the sequential oracle), and read from one
// whole reader and decoded in a pool of three, must render byte-identical
// JSON and text reports — decode-error lines and exemplar ordinals
// included — and stop with the same error text, at any chunk size from 1
// to 64 and any worker count from 1 to 8. parityValidator scores only 0,
// ½ and 1, whose sums are exact in any order.
func FuzzCSVReport(f *testing.F) {
	for i, doc := range []string{
		parityCSV(),
		csvLinesDoc,
		"a,b,a\nx,y,z\n1,2\nq,q,q\n",
		"a,b,n\r\n\"x\r\ny\",y,2\r\nx,x,9\r\n,,\r\n",
	} {
		f.Add([]byte(doc), uint8(i*7), uint8(i))
	}
	v := parityValidator(f)
	f.Fuzz(func(t *testing.T, doc []byte, chunk, workers uint8) {
		opts := Options{Workers: 1 + int(workers%8), ChunkSize: 1 + int(chunk%64),
			CrossRecord: []dqruntime.StatefulCheck{UniquenessCheckForTest()}}
		run := func(r io.Reader, decoders int) (*Result, string) {
			opts.DecodeWorkers = decoders
			opts.Registry = obs.NewRegistry()
			res, err := Run(context.Background(), v, NewCSVSource(r), opts)
			normalize(res)
			if err != nil {
				return res, err.Error()
			}
			return res, ""
		}
		want, wantErr := run(iotest.OneByteReader(bytes.NewReader(doc)), 1)
		got, gotErr := run(bytes.NewReader(doc), 3)
		if wantErr != gotErr {
			t.Fatalf("terminal errors diverged: one-byte %q, whole %q", wantErr, gotErr)
		}
		assertIdenticalReports(t, want, got)
	})
}

// TestMmapTooLongLine pins NDJSONSource's bounded-memory contract: a line
// over maxLineBytes is a hard error naming the right line, on a
// one-goroutine read and on NextSpan alike.
func TestMmapTooLongLine(t *testing.T) {
	doc := "{\"a\": \"ok\"}\n{\"a\": \"" + strings.Repeat("x", maxLineBytes) + "\"}\n"
	src := NewNDJSONSource(strings.NewReader(doc))
	var batch dqruntime.ColumnBatch
	n, err := NextBatchForTest(src, &batch, 16, func(int64, error) {})
	if n != 1 || err != nil {
		t.Fatalf("NextBatchForTest before oversized line: n=%d err=%v", n, err)
	}
	batch.Reset()
	_, err = NextBatchForTest(src, &batch, 16, func(int64, error) {})
	if err == nil || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("oversized line error = %v, want token too long", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("oversized line error names wrong line: %v", err)
	}

	src = NewNDJSONSource(strings.NewReader(doc))
	sp, err := src.NextSpan(16)
	if err != nil || sp.FirstLine != 1 || string(sp.Data) != "{\"a\": \"ok\"}\n" {
		t.Fatalf("NextSpan before oversized line: %+v, %v", sp, err)
	}
	_, err = src.NextSpan(16)
	if err == nil || !strings.Contains(err.Error(), "token too long") || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("NextSpan oversized line error = %v, want token too long at line 2", err)
	}
}

// NextBatchForTest decodes src's spans of up to max records into dst on
// the caller's goroutine until one yields a row, as NDJSONSource.NextBatch
// does, each into fresh storage: the tests drain any Source with it.
func NextBatchForTest(src Source, dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	for {
		var buf []byte
		sp, err := src.CutSpan(&buf, max)
		if err != nil {
			return 0, err
		}
		if n := src.DecodeSpan(sp, dst, bad); n > 0 {
			return n, nil
		}
	}
}

// firstRecord reads src's first record through NextBatchForTest.
func firstRecord(src Source) (dqruntime.Record, error) {
	var batch dqruntime.ColumnBatch
	if _, err := NextBatchForTest(src, &batch, 1, func(int64, error) {}); err != nil {
		return nil, err
	}
	return batch.RowView(0, dqruntime.Record{}), nil
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
	if _, ok := src.(*NDJSONSource); !ok {
		t.Fatalf("regular NDJSON file routed to %T, want *NDJSONSource", src)
	}
	rec, err := firstRecord(src)
	if err != nil || rec["a"] != "1" {
		t.Fatalf("NDJSON file read: %v, %v", rec, err)
	}

	// Extension picks CSV.
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
	rec, err = firstRecord(csvSrc)
	if err != nil || rec["a"] != "1" || rec["b"] != "2" {
		t.Fatalf("CSV read: %v, %v", rec, err)
	}

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
		t.Fatalf("empty file routed to %T, want *NDJSONSource", emptySrc)
	}
	if _, err := firstRecord(emptySrc); err != io.EOF {
		t.Fatalf("empty file read = %v, want io.EOF", err)
	}

	if _, _, err := OpenFileSource(filepath.Join(dir, "missing.ndjson"), ""); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestCountSourcePreservesSpans pins that the progress wrapper passes
// spans through and still counts decoded records.
func TestCountSourcePreservesSpans(t *testing.T) {
	doc := `{"a": "1"}` + "\n" + `{"a": "2"}` + "\n"
	var p Progress
	src := CountSource(NewNDJSONSource(strings.NewReader(doc)), &p)
	var buf []byte
	sp, err := src.CutSpan(&buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	var batch dqruntime.ColumnBatch
	if n := src.DecodeSpan(sp, &batch, func(int64, error) {}); n != 2 {
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
// first lines are correct, and decode agrees with NextBatchForTest.
func TestSpanCoverage(t *testing.T) {
	doc := trickyNDJSON()
	src := NewNDJSONSource(strings.NewReader(doc))
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

	other := NewNDJSONSource(strings.NewReader(doc))
	var n int
	for {
		var batch dqruntime.ColumnBatch
		got, err := NextBatchForTest(other, &batch, 64, func(int64, error) {})
		n += got
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != n {
		t.Fatalf("span decode produced %d rows, NextBatchForTest %d", total, n)
	}
}
