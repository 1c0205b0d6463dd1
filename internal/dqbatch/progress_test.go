package dqbatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	. "github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

func TestNDJSONByteOffsetTracksConsumedLines(t *testing.T) {
	input := `{"a":"1"}` + "\n" + `{"a":"2"}` + "\n"
	src := NewNDJSONSource(strings.NewReader(input))
	if got := src.ByteOffset(); got != 0 {
		t.Fatalf("initial offset = %d, want 0", got)
	}
	var batch dqruntime.ColumnBatch
	if _, err := src.NextBatch(&batch, 1, failOnBad(t)); err != nil {
		t.Fatal(err)
	}
	if got, want := src.ByteOffset(), int64(10); got != want {
		t.Fatalf("offset after first record = %d, want %d", got, want)
	}
	if _, err := src.NextBatch(&batch, 1, failOnBad(t)); err != nil {
		t.Fatal(err)
	}
	if got, want := src.ByteOffset(), int64(len(input)); got != want {
		t.Fatalf("offset after second record = %d, want %d", got, want)
	}
	if _, err := src.NextBatch(&batch, 1, failOnBad(t)); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

// failOnBad is a bad callback for inputs with no malformed
// records.
func failOnBad(t *testing.T) func(int64, error) {
	return func(line int64, err error) { t.Fatalf("line %d malformed: %v", line, err) }
}

func TestNDJSONByteOffsetAdvancesPastMalformedLines(t *testing.T) {
	input := "not json\n" + `{"a":"1"}` + "\n"
	src := NewNDJSONSource(strings.NewReader(input))
	// NextBatch would skip on to the next good line, so cut the malformed
	// line alone.
	var buf []byte
	sp, err := src.CutSpan(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	var bad error
	var batch dqruntime.ColumnBatch
	if n := src.DecodeSpan(sp, &batch, func(_ int64, err error) { bad = err }); n != 0 || bad == nil {
		t.Fatalf("malformed line decoded: n=%d err=%v", n, bad)
	}
	// The malformed line was consumed; the offset may move past it.
	if got, want := src.ByteOffset(), int64(9); got != want {
		t.Fatalf("offset after malformed record = %d, want %d", got, want)
	}
}

func TestCSVByteOffsetIsExact(t *testing.T) {
	input := "a,b\n1,2\n3,4\n"
	src := NewCSVSource(strings.NewReader(input))
	var batch dqruntime.ColumnBatch
	if _, err := NextBatchForTest(src, &batch, 1, failOnBad(t)); err != nil {
		t.Fatal(err)
	}
	if got, want := src.ByteOffset(), int64(8); got != want {
		t.Fatalf("offset after first data row = %d, want %d", got, want)
	}
	if _, err := NextBatchForTest(src, &batch, 1, failOnBad(t)); err != nil {
		t.Fatal(err)
	}
	if got, want := src.ByteOffset(), int64(len(input)); got != want {
		t.Fatalf("offset after second data row = %d, want %d", got, want)
	}
}

// TestCountSourcePublishesProgress drives a real batch through a counted
// NDJSON source and checks the progress's final position matches the
// input, with the row oracle and the stock validator.
func TestCountSourcePublishesProgress(t *testing.T) {
	v := buildValidator(t)
	var b strings.Builder
	for i := 0; i < 500; i++ {
		b.WriteString(`{"first_name":"G","last_name":"H","email_address":"g@h.io","overall_evaluation":2,"reviewer_confidence":3}` + "\n")
	}
	input := b.String()

	for _, rows := range []bool{true, false} {
		var p Progress
		src := CountSource(NewNDJSONSource(strings.NewReader(input)), &p)
		val := v
		if rows {
			val = RowOracleForTest(v)
		}
		if _, err := Run(context.Background(), val, src, Options{
			Workers: 4, ChunkSize: 64, Registry: obs.NewRegistry(),
		}); err != nil {
			t.Fatal(err)
		}
		if got := p.Records(); got != 500 {
			t.Fatalf("rows=%v: progress records = %d, want 500", rows, got)
		}
		if got, want := p.Bytes(), int64(len(input)); got != want {
			t.Fatalf("rows=%v: progress bytes = %d, want %d", rows, got, want)
		}
	}
}

func TestRenderReportMatchesLegacyRendering(t *testing.T) {
	v := buildValidator(t)
	res, err := Run(context.Background(), v,
		recordSource(t, []dqruntime.Record{goodRecord(), badRecord()}),
		Options{Workers: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := RenderReport(&got, res, "json"); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want := string(data) + "\n"; got.String() != want {
		t.Fatalf("json rendering diverged:\n got: %s\nwant: %s", got.String(), want)
	}

	got.Reset()
	if err := RenderReport(&got, res, "text"); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	res.WriteText(&want)
	if got.String() != want.String() {
		t.Fatalf("text rendering diverged:\n got: %s\nwant: %s", got.String(), want.String())
	}

	if err := RenderReport(io.Discard, res, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
