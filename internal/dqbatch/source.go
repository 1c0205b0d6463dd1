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
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// Source delivers records in columnar form: NextBatch decodes up to max
// records directly into dst (which the engine Resets beforehand),
// classifying every cell once instead of building one map per record.
// Malformed records are reported through bad, with the 1-based input line
// where they start, and skipped. NextBatch returns the number of rows
// decoded; io.EOF (possibly alongside a final partial count) ends the
// stream, and any other error aborts the batch.
type Source interface {
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

// SpanSource is a Source whose input is cut into raw spans cheaply and
// decoded out of order. The engine calls CutSpan on its single producer
// goroutine and DecodeSpan from its decode pool, so DecodeSpan must touch
// no source state; NextBatch serves callers that read on one goroutine.
type SpanSource interface {
	Source
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
	// scanned line.
	offset int64
	buf    []byte
}

// NewNDJSONSource wraps a reader of NDJSON records.
func NewNDJSONSource(r io.Reader) *NDJSONSource {
	sc := bufio.NewScanner(r)
	// One extra byte holds the terminator of a maxLineBytes-long line.
	sc.Buffer(make([]byte, 64*1024), maxLineBytes+1)
	sc.Split(scanRawLines)
	return &NDJSONSource{sc: sc}
}

// scanRawLines is bufio.ScanLines without its CR stripping: a token is one
// whole input line including its LF (the final line may lack one), so a
// streamed span holds the same bytes MmapNDJSONSource slices out of a
// mapping, and only the span decoder strips a line's trailing CR.
func scanRawLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// ByteOffset returns the input bytes consumed through the end of the most
// recently scanned line — a record-aligned checkpoint position. Not safe
// for concurrent use with the reading methods; a Progress wrapper
// (CountSource) publishes it across goroutines.
func (s *NDJSONSource) ByteOffset() int64 { return s.offset }

// CutSpan copies up to maxLines scanned lines, byte for byte, into *buf. A
// scanner error (an oversized line, a failed read) surfaces once the lines
// before it have been returned, naming the line it hit; the scanner is not
// asked again after an error, as it would hand out its buffered remainder
// as a line.
func (s *NDJSONSource) CutSpan(buf *[]byte, maxLines int) (Span, error) {
	first := s.line + 1
	b := (*buf)[:0]
	for s.line+1-first < int64(maxLines) && s.sc.Err() == nil && s.sc.Scan() {
		raw := s.sc.Bytes()
		s.line++
		s.offset += int64(len(raw))
		b = append(b, raw...)
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

// NextBatch decodes the next span of up to max lines into dst.
func (s *NDJSONSource) NextBatch(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	return nextSpanBatch(s, &s.buf, dst, max, bad)
}

// nextSpanBatch serves a span source's NextBatch through its own CutSpan
// and DecodeSpan, so both read paths share one cutter and one decoder. It
// decodes spans of up to max lines into dst until one yields a row, so
// (0, nil) never comes back.
func nextSpanBatch(s SpanSource, buf *[]byte, dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	for {
		sp, err := s.CutSpan(buf, max)
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
// safe for concurrent use with NextBatch; a Progress wrapper (CountSource)
// publishes it across goroutines.
func (s *CSVSource) ByteOffset() int64 { return s.r.InputOffset() }

// NextBatch decodes up to max CSV data rows into dst. Rows with the wrong
// field count and unparsable rows are reported through bad, with the file
// line where they start, and skipped.
func (s *CSVSource) NextBatch(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
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
			s.dupHeader = hasDuplicates(s.header)
			continue
		}
		if len(row) != len(s.header) {
			bad(s.line, fmt.Errorf("row has %d fields, header has %d", len(row), len(s.header)))
			continue
		}
		if s.dupHeader {
			// Duplicate header names: the last value per name wins, as in a
			// record map, so round-trip through a scratch map.
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

func hasDuplicates(names []string) bool {
	seen := make(map[string]struct{}, len(names))
	for _, n := range names {
		if _, ok := seen[n]; ok {
			return true
		}
		seen[n] = struct{}{}
	}
	return false
}
