package dqbatch

import (
	"io"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// ColumnSource serves an in-memory record set that was columnarized (and
// its OCL values boxed) once, up front. NextBatch hands out zero-copy
// chunk views, so a benchmark or repeated run pays decoding exactly once;
// tests use it to feed records to the engine without serializing them.
type ColumnSource struct {
	batch dqruntime.ColumnBatch
	next  int
}

// NewColumnSource columnarizes records eagerly; the records are read, not
// kept.
func NewColumnSource(records []dqruntime.Record) *ColumnSource {
	s := &ColumnSource{}
	s.batch.Columnarize(records)
	s.batch.WarmOCLValues()
	return s
}

// Rewind restarts the stream from the first record, keeping the columnar
// form, so one source can feed repeated runs.
func (s *ColumnSource) Rewind() { s.next = 0 }

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
