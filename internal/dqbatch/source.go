// Package dqbatch validates whole datasets against a DQSR-derived
// validator: where internal/dqruntime checks one web-form record at a
// time, dqbatch streams millions of records from NDJSON or CSV sources
// through a pool of workers and merges per-characteristic statistics
// through sharded aggregators, so neither the input side nor the reduce
// side becomes the bottleneck. It is the dataset-scale counterpart of the
// paper's per-form enforcement loop.
package dqbatch

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// Source yields records one at a time. The engine offers a recycled map
// rec; streaming decoders clear and fill it (overwriting every prior key)
// and return it, while in-memory sources may ignore it and return their
// own record, skipping the copy — the engine only reads returned records.
// Next returns io.EOF at end of input. A *RecordError marks one malformed
// record the engine counts and skips; any other error aborts the batch.
type Source interface {
	Next(rec dqruntime.Record) (dqruntime.Record, error)
}

// BatchSource is a Source that can also deliver records in columnar form:
// NextBatch decodes up to max records directly into dst (which the engine
// Resets beforehand), classifying every cell once instead of building one
// map per record. Malformed records are reported through bad (with their
// 1-based input line) and skipped, mirroring the row path's *RecordError
// handling. NextBatch returns the number of rows decoded; io.EOF (possibly
// alongside a final partial count) ends the stream, and any other error
// aborts the batch.
type BatchSource interface {
	Source
	NextBatch(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error)
}

// Span is a run of whole input lines ready for decoding. Data covers the
// lines including their newline terminators (the final line of the input
// may lack one); FirstLine is the 1-based input line number of the first
// line in Data.
type Span struct {
	Data      []byte
	FirstLine int64
}

// SpanSource is a BatchSource whose input is cut into raw spans cheaply
// and decoded out of order. The engine calls CutSpan on its single
// producer goroutine and DecodeSpan from its decode pool, so DecodeSpan
// must touch no source state.
type SpanSource interface {
	BatchSource
	// CutSpan consumes up to maxLines whole lines as one span; io.EOF ends
	// the stream and any other error aborts the batch. A source that reads
	// a stream copies the lines into *buf (reusing its capacity), so the
	// caller owns the span's bytes; a source over a read-only mapping
	// returns a slice of it and leaves buf alone.
	CutSpan(buf *[]byte, maxLines int) (Span, error)
	// DecodeSpan decodes one span into dst, reporting malformed lines
	// through bad in line order, and returns the rows appended.
	DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int
}

// RecordError is a recoverable per-record input problem (a malformed
// NDJSON line, a CSV row with the wrong field count). The engine counts
// it under outcome="error" and moves on.
type RecordError struct {
	// Line is the 1-based input file line where the offending record
	// starts (CSV records with quoted multi-line fields span several file
	// lines; the count is file lines, not records).
	Line int64
	// Err is the underlying decode error.
	Err error
}

// Error renders the line and cause.
func (e *RecordError) Error() string { return fmt.Sprintf("record %d: %v", e.Line, e.Err) }

// Unwrap exposes the cause.
func (e *RecordError) Unwrap() error { return e.Err }

// maxLineBytes bounds one NDJSON line, terminator excluded; lines beyond
// it are a hard error (bounded memory is part of the contract).
const maxLineBytes = 1 << 20

// NDJSONSource streams newline-delimited JSON objects. Values may be
// strings, numbers, booleans or null; scalars are rendered to the string
// form a web form would deliver (null and nested values are rejected —
// records are flat field→string maps by construction). A bufio.Scanner
// cuts the lines, and each span is copied into caller-owned storage, so
// memory use is the scanner buffer plus the spans in flight, regardless
// of input size.
type NDJSONSource struct {
	sc   *bufio.Scanner
	line int64
	// offset counts input bytes consumed through the end of the last
	// scanned line, assuming LF terminators (see ByteOffset).
	offset int64
	rows   spanRows
}

// NewNDJSONSource wraps a reader of NDJSON records.
func NewNDJSONSource(r io.Reader) *NDJSONSource {
	sc := bufio.NewScanner(r)
	// One extra byte holds the terminator of a maxLineBytes-long line.
	sc.Buffer(make([]byte, 64*1024), maxLineBytes+1)
	return &NDJSONSource{sc: sc}
}

// ByteOffset returns the input bytes consumed through the end of the most
// recently scanned line. Offsets assume LF line terminators (the scanner
// strips CR, so CRLF input under-counts one byte per line); they exist for
// progress checkpoints, where a record-aligned resume point matters more
// than terminator-exact arithmetic. Not safe for concurrent use with the
// reading methods; a Progress wrapper (CountSource) publishes it across
// goroutines.
func (s *NDJSONSource) ByteOffset() int64 { return s.offset }

// CutSpan copies up to maxLines scanned lines, each LF-terminated, into
// *buf. A scanner error (an oversized line, a failed read) surfaces once
// the lines before it have been returned, naming the line it hit; the
// scanner is not asked again after an error, as it would hand out its
// buffered remainder as a line.
func (s *NDJSONSource) CutSpan(buf *[]byte, maxLines int) (Span, error) {
	first := s.line + 1
	b := (*buf)[:0]
	for s.line+1-first < int64(maxLines) && s.sc.Err() == nil && s.sc.Scan() {
		raw := s.sc.Bytes()
		s.line++
		s.offset += int64(len(raw)) + 1
		b = append(append(b, raw...), '\n')
	}
	*buf = b
	if s.line >= first {
		return Span{Data: b, FirstLine: first}, nil
	}
	if err := s.sc.Err(); err != nil {
		return Span{}, fmt.Errorf("dqbatch: reading line %d: %w", first, err)
	}
	return Span{}, io.EOF
}

// DecodeSpan decodes one span through the shared NDJSON decoder.
func (s *NDJSONSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	return decodeNDJSONSpan(sp, dst, bad)
}

// Next decodes the next non-blank line into rec.
func (s *NDJSONSource) Next(rec dqruntime.Record) (dqruntime.Record, error) {
	return s.rows.next(s, rec)
}

// NextBatch decodes the next span of up to max lines into dst.
func (s *NDJSONSource) NextBatch(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	return s.rows.nextBatch(s, dst, max, bad)
}

// spanRows serves a span source's Next and NextBatch through its own
// CutSpan and DecodeSpan, so every read path shares one cutter and one
// decoder.
type spanRows struct {
	buf   []byte
	batch dqruntime.ColumnBatch
}

// next decodes the next non-blank line into rec; a malformed line comes
// back as a *RecordError.
func (r *spanRows) next(s SpanSource, rec dqruntime.Record) (dqruntime.Record, error) {
	for {
		sp, err := s.CutSpan(&r.buf, 1)
		if err != nil {
			return nil, err
		}
		r.batch.Reset()
		var bad error
		if s.DecodeSpan(sp, &r.batch, func(line int64, err error) { bad = &RecordError{Line: line, Err: err} }) > 0 {
			return r.batch.RowView(0, rec), nil
		}
		if bad != nil {
			return nil, bad
		}
	}
}

// nextBatch decodes spans of up to max lines into dst until one yields a
// row, so (0, nil) never comes back.
func (r *spanRows) nextBatch(s SpanSource, dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	for {
		sp, err := s.CutSpan(&r.buf, max)
		if err != nil {
			return 0, err
		}
		if n := s.DecodeSpan(sp, dst, bad); n > 0 {
			return n, nil
		}
	}
}

// scalarString renders one JSON value as the string a form field would
// carry.
func scalarString(v any) (string, error) {
	switch t := v.(type) {
	case string:
		return t, nil
	case float64:
		return strconv.FormatFloat(t, 'f', -1, 64), nil
	case bool:
		return strconv.FormatBool(t), nil
	default:
		return "", fmt.Errorf("unsupported value type %T", v)
	}
}

// trimSpaceBytes trims ASCII whitespace without allocating.
func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func asciiSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// CSVSource streams CSV rows, taking field names from the header row.
// It reuses the csv.Reader's record storage, so memory stays bounded by
// one row.
type CSVSource struct {
	r      *csv.Reader
	header []string
	// line is the 1-based file line where the most recent record starts —
	// a true file line from csv.Reader.FieldPos, not a record count, so
	// quoted multi-line fields don't skew later diagnostics.
	line int64
	// dupHeader and scratch support NextBatch when header names repeat
	// (map semantics: last value per name wins).
	dupHeader bool
	scratch   dqruntime.Record
}

// NewCSVSource wraps a reader of CSV records whose first row names the
// fields.
func NewCSVSource(r io.Reader) *CSVSource {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // field-count mismatches are per-record errors
	return &CSVSource{r: cr}
}

// ByteOffset returns the input bytes consumed through the most recently
// read record (csv.Reader.InputOffset, so quoting and CRLF are exact). Not
// safe for concurrent use with Next; a Progress wrapper (CountSource)
// publishes it across goroutines.
func (s *CSVSource) ByteOffset() int64 { return s.r.InputOffset() }

// Next decodes the next data row into rec.
func (s *CSVSource) Next(rec dqruntime.Record) (dqruntime.Record, error) {
	for {
		row, err := s.r.Read()
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			if pe, ok := err.(*csv.ParseError); ok {
				return nil, &RecordError{Line: int64(pe.StartLine), Err: err}
			}
			return nil, fmt.Errorf("dqbatch: reading CSV after line %d: %w", s.line, err)
		}
		line, _ := s.r.FieldPos(0)
		s.line = int64(line)
		if s.header == nil {
			s.header = append([]string(nil), row...)
			s.dupHeader = hasDuplicates(s.header)
			continue
		}
		if len(row) != len(s.header) {
			return nil, &RecordError{Line: s.line,
				Err: fmt.Errorf("row has %d fields, header has %d", len(row), len(s.header))}
		}
		clear(rec)
		for i, v := range row {
			rec[s.header[i]] = v
		}
		return rec, nil
	}
}

// SliceSource yields an in-memory record slice — the zero-I/O source the
// benchmarks and tests drive the engine with. It returns its records
// directly (no copy), so callers must not mutate them while the batch
// runs.
type SliceSource struct {
	records []dqruntime.Record
	next    int
}

// NewSliceSource wraps the given records; the slice is read, not copied.
func NewSliceSource(records []dqruntime.Record) *SliceSource {
	return &SliceSource{records: records}
}

// Next returns the next record as-is.
func (s *SliceSource) Next(dqruntime.Record) (dqruntime.Record, error) {
	if s.next >= len(s.records) {
		return nil, io.EOF
	}
	r := s.records[s.next]
	s.next++
	return r, nil
}
