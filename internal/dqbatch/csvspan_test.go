// The CSV span cutter against its oracle: CSVSource cuts whole records on
// one goroutine and parses each span with its own csv.Reader, and must
// agree — row for row, diagnostic for diagnostic — with one csv.Reader
// reading the whole stream, the loop the source ran before it cut spans.
package dqbatch

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// csvOracle is the one-goroutine csv.Reader loop: the whole stream
// through one reader, the header taken from the first record that parses,
// and a record map when header names repeat (the last value per name
// wins).
type csvOracle struct {
	r      *csv.Reader
	header []string
	// line is the 1-based file line where the most recent record starts.
	line      int64
	dupHeader bool
	scratch   dqruntime.Record
}

func newCSVOracle(r io.Reader) *csvOracle {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1
	return &csvOracle{r: cr}
}

// next decodes up to max data rows into dst, reporting rows with the
// wrong field count and unparsable records through bad.
func (s *csvOracle) next(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	n := 0
	for n < max {
		row, err := s.r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if pe, ok := err.(*csv.ParseError); ok {
				bad(int64(pe.StartLine), err)
				continue
			}
			return n, fmt.Errorf("dqbatch: reading CSV after line %d: %w", s.line, err)
		}
		line, _ := s.r.FieldPos(0)
		s.line = int64(line)
		if s.header == nil {
			s.header = append([]string(nil), row...)
			seen := make(map[string]bool, len(row))
			for _, name := range row {
				s.dupHeader = s.dupHeader || seen[name]
				seen[name] = true
			}
			continue
		}
		if len(row) != len(s.header) {
			bad(s.line, fmt.Errorf("row has %d fields, header has %d", len(row), len(s.header)))
			continue
		}
		if s.dupHeader {
			if s.scratch == nil {
				s.scratch = make(dqruntime.Record, len(s.header))
			}
			clear(s.scratch)
			for i, v := range row {
				s.scratch[s.header[i]] = v
			}
			for k, v := range s.scratch {
				dst.SetField(k, v)
			}
		} else {
			for i, v := range row {
				dst.SetField(s.header[i], v)
			}
		}
		dst.EndRow()
		n++
	}
	if n > 0 {
		return n, nil
	}
	return 0, io.EOF
}

// csvRead is everything one read of a CSV stream delivers.
type csvRead struct {
	rows []dqruntime.Record
	bads []string
	err  error
}

func (d *csvRead) bad(line int64, err error) {
	d.bads = append(d.bads, fmt.Sprintf("line %d: %v", line, err))
}

func (d *csvRead) keep(batch *dqruntime.ColumnBatch) {
	for i := 0; i < batch.Rows(); i++ {
		d.rows = append(d.rows, batch.RowView(i, dqruntime.Record{}))
	}
}

// readCSVOracle drains the oracle over r.
func readCSVOracle(r io.Reader) (d csvRead) {
	o := newCSVOracle(r)
	var batch dqruntime.ColumnBatch
	for {
		batch.Reset()
		_, err := o.next(&batch, 64, d.bad)
		d.keep(&batch)
		if err != nil {
			d.err = err
			return d
		}
	}
}

// readCSVSpans drains src span by span, cutting maxLines records a time.
func readCSVSpans(src *CSVSource, maxLines int) (d csvRead) {
	var buf []byte
	var batch dqruntime.ColumnBatch
	for {
		sp, err := src.CutSpan(&buf, maxLines)
		if err != nil {
			d.err = err
			return d
		}
		if len(sp.Data) == 0 {
			d.err = errors.New("CutSpan returned an empty span")
			return d
		}
		batch.Reset()
		src.DecodeSpan(sp, &batch, d.bad)
		d.keep(&batch)
	}
}

// sameCSVRead compares a span read with the oracle's. Both end with
// io.EOF or with the same read error; the span cutter names the line the
// record cut short starts at rather than the last good record's, so only
// the wrapped error must match.
func sameCSVRead(t *testing.T, name string, want, got csvRead) {
	t.Helper()
	if !reflect.DeepEqual(want.rows, got.rows) {
		t.Fatalf("%s: rows diverged\noracle: %v\nspans:  %v", name, want.rows, got.rows)
	}
	if !reflect.DeepEqual(want.bads, got.bads) {
		t.Fatalf("%s: diagnostics diverged\noracle: %q\nspans:  %q", name, want.bads, got.bads)
	}
	if errors.Unwrap(want.err) != errors.Unwrap(got.err) || (want.err == io.EOF) != (got.err == io.EOF) {
		t.Fatalf("%s: terminal error %v, oracle %v", name, got.err, want.err)
	}
}

// FuzzCSVSpan holds the CSV span cutter and decoder to the one-reader
// oracle on any bytes, at any span size from 1 to 16 records, over a
// whole reader and a reader returning one byte per Read. A leading byte
// order mark is dropped before the oracle reads, as CSVSource drops it.
// Over a reader that fails after the document, the records cut before the
// failure must match the oracle over the same bytes, and what was left
// uncut must hold no whole record: a read error drops only the record it
// cuts short, where the oracle may still report that record's parse
// error.
func FuzzCSVSpan(f *testing.F) {
	for i, doc := range []string{
		parityCSV(),
		csvLinesDoc,
		"a,b,a\nx,y,z\n1,2\nq,q,q\n",
		"a,b,n\r\n\"x\r\ny\",y,2\r\nx,x,9\r\n,,\r\n",
		// A parse error ends the record at its line, before the quote
		// that would open a multi-line field, here and before the header.
		"\"a\"x,\"b\nc\"\nd,e\n1,2\n",
		"ab\"cd,\"x\ny\"\n",
		"\"a\"x,\"b\na,b\n1,2\n",
		"ab\"cd,\"x\na,b\n1,2\n",
		"\"x\"\r\r\n",
		"a,b\n1,\"unterminated\n2,3\n",
		// Blank lines and malformed records before the header.
		"\n\r\n\"bad\"x\nq\"\n\n\"multi\nline\"z\na,b\n1,2\n\n3,4",
		"\ufeffa,b\n1,2\n",
	} {
		f.Add([]byte(doc), uint8(i))
	}
	boom := errors.New("boom")
	failing := func(doc []byte) io.Reader { return io.MultiReader(bytes.NewReader(doc), iotest.ErrReader(boom)) }
	f.Fuzz(func(t *testing.T, doc []byte, max uint8) {
		maxLines := 1 + int(max%16)
		plain := bytes.TrimPrefix(doc, utf8BOM)
		want := readCSVOracle(bytes.NewReader(plain))
		sameCSVRead(t, "whole", want, readCSVSpans(NewCSVSource(bytes.NewReader(doc)), maxLines))
		sameCSVRead(t, "one-byte", want,
			readCSVSpans(NewCSVSource(iotest.OneByteReader(bytes.NewReader(doc))), maxLines))

		src := NewCSVSource(failing(doc))
		got := readCSVSpans(src, maxLines)
		cut := src.ByteOffset() - int64(len(doc)-len(plain))
		sameCSVRead(t, "read-error", readCSVOracle(failing(plain[:cut])), got)
		if rest := plain[cut:]; len(rest) > 0 {
			cr := csv.NewReader(failing(rest))
			if _, err := cr.Read(); !errors.Is(err, boom) &&
				(rest[len(rest)-1] == '\n' || cr.InputOffset() < int64(len(rest))) {
				t.Fatalf("read error dropped a whole record: %q", rest)
			}
		}
	})
}

// TestCSVReadErrorDropsCutRecord pins the read-error contract: the records
// before a failed read are validated, the record it cuts short (here a
// quoted field still open) is dropped, and the error names that record's
// first line.
func TestCSVReadErrorDropsCutRecord(t *testing.T) {
	boom := errors.New("boom")
	doc := "a,b\n1,2\n\"3\n4"
	v := dqruntime.NewValidator("csv", dqruntime.CompletenessCheck{Required: []string{"a"}})
	var p Progress
	src := CountSource(NewCSVSource(io.MultiReader(strings.NewReader(doc), iotest.ErrReader(boom))), &p)
	res, err := Run(context.Background(), v, src, Options{Workers: 1, Registry: obs.NewRegistry()})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "line 3:") {
		t.Fatalf("err = %v, want boom at line 3", err)
	}
	if res.Records != 1 || res.Malformed != 0 {
		t.Fatalf("records/malformed = %d/%d, want 1/0", res.Records, res.Malformed)
	}
	if p.Bytes() != int64(len("a,b\n1,2\n")) {
		t.Fatalf("byte offset = %d, want the two whole records", p.Bytes())
	}
}

// TestCSVByteOrderMark pins that a UTF-8 byte order mark, as spreadsheet
// exports write it, does not rename the first column, and that the byte
// offset still counts it.
func TestCSVByteOrderMark(t *testing.T) {
	doc := "\ufeffa,b\n1,2\n3,4\n"
	v := dqruntime.NewValidator("bom", dqruntime.CompletenessCheck{Required: []string{"a"}})
	var p Progress
	res, err := Run(context.Background(), v, CountSource(NewCSVSource(strings.NewReader(doc)), &p),
		Options{Workers: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 || res.Passed != 2 || res.Malformed != 0 {
		t.Fatalf("records/passed/malformed = %d/%d/%d, want 2/2/0", res.Records, res.Passed, res.Malformed)
	}
	if p.Bytes() != int64(len(doc)) {
		t.Fatalf("byte offset = %d, want %d", p.Bytes(), len(doc))
	}
}

// TestCSVMalformedBeforeHeader runs 200 malformed records before the
// header through four decoders in spans of eight: the spans cut before the
// header decode while the producer resolves it, so under -race this
// guards that such spans never read the header.
func TestCSVMalformedBeforeHeader(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		b.WriteString("x\"y,z\n")
	}
	b.WriteString("a,b\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "v%d,w%d\n", i, i)
	}
	v := dqruntime.NewValidator("csv", dqruntime.CompletenessCheck{Required: []string{"a", "b"}})
	for i := 0; i < 5; i++ {
		res, err := Run(context.Background(), v, NewCSVSource(strings.NewReader(b.String())),
			Options{Workers: 2, DecodeWorkers: 4, ChunkSize: 8, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != 100 || res.Passed != 100 || res.Malformed != 200 {
			t.Fatalf("records/passed/malformed = %d/%d/%d, want 100/100/200", res.Records, res.Passed, res.Malformed)
		}
		for j, de := range res.DecodeErrors {
			if de.Line != int64(j+1) {
				t.Fatalf("decode error %d at line %d, want %d", j, de.Line, j+1)
			}
		}
	}
}
