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

// Source is the one input contract of Run and BuildKeySet: a source
// cuts its input into raw spans of whole records cheaply, on one
// goroutine, and decodes each span independently. Run calls CutSpan on
// its single producer goroutine and DecodeSpan from its decode pool, so
// DecodeSpan must not touch state that CutSpan is still writing.
type Source interface {
	// CutSpan consumes up to maxLines whole records as one span; io.EOF
	// ends the stream and any other error aborts the batch. A span never
	// comes back empty alongside a nil error. The records are copied into
	// *buf (reusing its capacity), so the caller owns the span's bytes.
	CutSpan(buf *[]byte, maxLines int) (Span, error)
	// DecodeSpan decodes one span into dst, reporting malformed records
	// through bad, with the 1-based input line where they start, in line
	// order, and returns the rows appended. The cells it appends may view
	// sp.Data: the caller keeps those bytes unchanged until it resets dst.
	DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int
}

// Span is a run of whole input lines ready for decoding. Data covers the
// lines including their newline terminators (the final line of the input
// may lack one); FirstLine is the 1-based input line number of the first
// line in Data.
type Span struct {
	Data      []byte
	FirstLine int64
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
// span holds the input's bytes exactly, and only the span decoder strips
// a line's trailing CR.
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
// recently scanned line — a record-aligned position. Not safe for
// concurrent use with the reading methods; a Progress wrapper
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

// NextSpan is CutSpan into fresh storage, so the spans a caller collects
// stay valid across later cuts: the span is cut into the source's own
// buffer and copied out at its size.
func (s *NDJSONSource) NextSpan(maxLines int) (Span, error) {
	sp, err := s.CutSpan(&s.buf, maxLines)
	sp.Data = bytes.Clone(sp.Data)
	return sp, err
}

// DecodeSpan decodes one span through the shared NDJSON decoder.
func (s *NDJSONSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	return decodeNDJSONSpan(sp, dst, bad)
}

// NextBatch decodes spans of up to max lines into dst, on the caller's
// goroutine, until one yields a row, so (0, nil) never comes back. It
// cuts each span into fresh storage, as NextSpan does, because dst's
// cells view their span: rows that dst kept from earlier calls stay
// valid.
func (s *NDJSONSource) NextBatch(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	for {
		sp, err := s.NextSpan(max)
		if err != nil {
			return 0, err
		}
		if n := decodeNDJSONSpan(sp, dst, bad); n > 0 {
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

// CSVSource reads CSV records by encoding/csv's rules, taking field names
// from the header, the first record that parses. CutSpan finds record
// boundaries with a byte scan on the producer, so a quoted field may span
// lines; DecodeSpan parses each span with its own csv.Reader in the decode
// pool. A leading UTF-8 byte order mark, as spreadsheet exports write,
// is dropped before the header.
type CSVSource struct {
	r *bufio.Reader
	// line and offset count the lines and bytes of the whole records cut
	// so far (offset includes a dropped byte order mark); err is the first
	// read error, or io.EOF, surfaced once the records before it are out.
	line, offset int64
	err          error
	// hdr is set once, by CutSpan. DecodeSpan reads it only for a record
	// that parses, and a span cut before the header holds none, so no
	// decoder reads hdr while the producer writes it.
	hdr *csvHeader
}

// csvHeader is the header resolved once: names are the distinct field
// names in order of first appearance, and index[i] is the field names[i]
// takes its value from — the last of that name, as in a record map.
type csvHeader struct {
	fields int
	names  [][]byte
	index  []int
}

// NewCSVSource wraps a reader of CSV records under a header row.
func NewCSVSource(r io.Reader) *CSVSource {
	return &CSVSource{r: bufio.NewReaderSize(r, 64*1024)}
}

// newCSVReader reads records out of data whatever their field count.
func newCSVReader(data []byte) *csv.Reader {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1
	return cr
}

// ByteOffset returns the input bytes of the whole records cut so far, so
// quoting and CRLF are exact. Not safe for concurrent use with CutSpan; a
// Progress wrapper (CountSource) publishes it across goroutines.
func (s *CSVSource) ByteOffset() int64 { return s.offset }

var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// CutSpan copies up to maxLines whole records (a blank line counts as
// one) into *buf. Records before the header that fail to parse go into
// the span for DecodeSpan to report; the header itself never does. A read
// error surfaces once the records before it have been returned, and the
// record it cut short is dropped.
func (s *CSVSource) CutSpan(buf *[]byte, maxLines int) (Span, error) {
	if s.offset == 0 && s.err == nil {
		// Nothing is read yet; a failed Peek leaves its error to the reads.
		if p, _ := s.r.Peek(len(utf8BOM)); bytes.Equal(p, utf8BOM) {
			n, _ := s.r.Discard(len(p))
			s.offset += int64(n)
		}
	}
	b := (*buf)[:0]
	first := s.line + 1
	for records := 0; records < maxLines && s.err == nil; {
		start := len(b)
		if b, s.err = s.cutRecord(b); s.err != nil {
			break
		}
		if s.hdr == nil {
			if row, err := newCSVReader(b[start:]).Read(); err == nil {
				s.hdr = newCSVHeader(row)
				// A span holds contiguous lines, so the header ends it.
				if b = b[:start]; len(b) > 0 {
					break
				}
				first = s.line + 1
				continue
			}
		}
		records++
	}
	*buf = b
	if len(b) > 0 {
		return Span{Data: b, FirstLine: first}, nil
	}
	if s.err == io.EOF {
		return Span{}, io.EOF
	}
	return Span{}, fmt.Errorf("dqbatch: reading CSV line %d: %w", s.line+1, s.err)
}

// cutRecord appends the next record to b — one line, or more while a
// quoted field is open — and counts its lines and bytes. It returns
// io.EOF at the end of input, and on a read error b as it was.
func (s *CSVSource) cutRecord(b []byte) ([]byte, error) {
	start, lines, state := len(b), int64(0), csvFieldStart
	for {
		end := len(b)
		chunk, err := s.r.ReadSlice('\n')
		b = append(b, chunk...)
		for err == bufio.ErrBufferFull {
			chunk, err = s.r.ReadSlice('\n')
			b = append(b, chunk...)
		}
		if err != nil && err != io.EOF {
			return b[:start], err
		}
		if len(b) > end {
			lines++
			state = scanCSVLine(state, b[end:])
		}
		// At the end of input an open quoted field ends unterminated, and
		// DecodeSpan reports it.
		if err == io.EOF || state != csvQuoted {
			if lines == 0 {
				return b, io.EOF
			}
			s.line += lines
			s.offset += int64(len(b) - start)
			return b, nil
		}
	}
}

// States of the CSV record-boundary scan.
const (
	csvFieldStart = iota // before a field's first byte
	csvUnquoted          // inside an unquoted field
	csvQuoted            // inside a quoted field, where a newline is data
	csvAfterQuote        // after a quote in a quoted field: "" or the close
	csvBroken            // after a parse error, which ends the record with its line
)

// scanCSVLine advances the record-boundary scan over one line by
// encoding/csv's rules: a field is quoted only when it starts with a
// quote, and a quote in an unquoted field, or a closing quote followed by
// anything but a comma, ends the record with its line (as a parse error
// unless the line ends there; DecodeSpan tells which). The record ends
// with the line unless the result is csvQuoted; a line without quotes
// leaves the state as it was.
func scanCSVLine(state int, line []byte) int {
	if bytes.IndexByte(line, '"') < 0 {
		return state
	}
	for _, c := range line {
		switch {
		case state == csvQuoted:
			if c == '"' {
				state = csvAfterQuote
			}
		case state == csvAfterQuote && c == '"':
			state = csvQuoted
		case c == ',':
			state = csvFieldStart
		case c == '"' && state == csvFieldStart:
			state = csvQuoted
		case c == '"' || state == csvAfterQuote:
			return csvBroken
		default:
			state = csvUnquoted
		}
	}
	return state
}

func newCSVHeader(row []string) *csvHeader {
	h := &csvHeader{fields: len(row)}
	at := make(map[string]int, len(row))
	for i, name := range row {
		if j, ok := at[name]; ok {
			h.index[j] = i
			continue
		}
		at[name] = len(h.names)
		h.names = append(h.names, []byte(name))
		h.index = append(h.index, i)
	}
	return h
}

// DecodeSpan parses sp with its own csv.Reader, shifting its line numbers
// by the span's FirstLine, so error texts, lines and values are those of
// one reader over the whole input. Rows with the wrong field count and
// unparsable records are reported through bad and skipped. Cells are set
// in header order, so the batch's predicted column hits on every cell.
func (s *CSVSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	cr := newCSVReader(sp.Data)
	shift := sp.FirstLine - 1
	n := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return n
		}
		if err != nil {
			// Over an in-memory span, Read fails only with parse errors.
			pe := err.(*csv.ParseError)
			pe.StartLine += int(shift)
			pe.Line += int(shift)
			bad(int64(pe.StartLine), pe)
			continue
		}
		line, _ := cr.FieldPos(0)
		if h := s.hdr; len(row) != h.fields {
			bad(int64(line)+shift, fmt.Errorf("row has %d fields, header has %d", len(row), h.fields))
		} else {
			for i, name := range h.names {
				dst.SetFieldBytes(name, row[h.index[i]])
			}
			dst.EndRow()
			n++
		}
	}
}
