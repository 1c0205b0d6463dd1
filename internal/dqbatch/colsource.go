package dqbatch

import (
	"encoding/csv"
	"fmt"
	"io"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// NextBatch decodes up to max CSV data rows into dst. Rows with the wrong
// field count and unparsable rows are reported through bad and skipped,
// exactly as Next reports them.
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
			// Duplicate header names: the row path's map semantics keep the
			// last value per name, so round-trip through a scratch map.
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

// ColumnSource serves an in-memory record set that was columnarized (and
// its OCL values boxed) once, up front. NextBatch hands out zero-copy
// chunk views, so a benchmark or repeated run pays decoding exactly once —
// the columnar analogue of SliceSource. Next still serves the original
// records for the row path.
type ColumnSource struct {
	recs  []dqruntime.Record
	batch dqruntime.ColumnBatch
	next  int
}

// NewColumnSource columnarizes records eagerly; the slice is read, not
// copied, and must not be mutated while any batch built on it runs.
func NewColumnSource(records []dqruntime.Record) *ColumnSource {
	s := &ColumnSource{recs: records}
	s.batch.Columnarize(records)
	s.batch.WarmOCLValues()
	return s
}

// Rewind restarts the stream from the first record, keeping the columnar
// form, so one source can feed repeated runs.
func (s *ColumnSource) Rewind() { s.next = 0 }

// Next returns the next record as-is (row-path fallback).
func (s *ColumnSource) Next(dqruntime.Record) (dqruntime.Record, error) {
	if s.next >= len(s.recs) {
		return nil, io.EOF
	}
	r := s.recs[s.next]
	s.next++
	return r, nil
}

// NextBatch slices the next chunk view out of the pre-built batch.
func (s *ColumnSource) NextBatch(dst *dqruntime.ColumnBatch, max int, _ func(line int64, err error)) (int, error) {
	rows := s.batch.Rows()
	if s.next >= rows {
		return 0, io.EOF
	}
	hi := s.next + max
	if hi > rows {
		hi = rows
	}
	s.batch.SliceInto(dst, s.next, hi)
	n := hi - s.next
	s.next = hi
	return n, nil
}
