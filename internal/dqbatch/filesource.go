package dqbatch

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// MmapNDJSONSource streams newline-delimited JSON straight out of a
// read-only byte slice — normally a memory-mapped file. Spans are sliced
// out of the mapping with bytes.IndexByte newline scans, so no line buffer
// is filled and no span bytes are copied; only the decoded cell strings
// are materialized. It is a drop-in for NDJSONSource: same record
// semantics, same error texts, same maxLineBytes bound (the golden parity
// suite pins report-level byte equality between the two).
type MmapNDJSONSource struct {
	data []byte
	pos  int
	// line is the 1-based number of the most recently consumed line.
	line int64
}

// NewMmapNDJSONSource wraps an in-memory NDJSON byte slice. The slice is
// read, not copied; the caller keeps it alive (and mapped) until the
// source is drained.
func NewMmapNDJSONSource(data []byte) *MmapNDJSONSource {
	return &MmapNDJSONSource{data: data}
}

// ByteOffset returns the bytes consumed through the end of the most
// recently consumed line — here an exact position in the backing slice.
// Not safe for concurrent use with the reading methods; a Progress
// wrapper (CountSource) publishes it across goroutines.
func (s *MmapNDJSONSource) ByteOffset() int64 { return int64(s.pos) }

// CutSpan slices up to maxLines lines out of the mapping — pure newline
// arithmetic, no decoding and no copy, so buf is unused. A line longer
// than maxLineBytes is a hard error, mirroring bufio.Scanner's ErrTooLong
// at the same line number; it is left unconsumed while earlier lines of
// the span are still returned.
func (s *MmapNDJSONSource) CutSpan(_ *[]byte, maxLines int) (Span, error) {
	start, first := s.pos, s.line+1
	for lines := 0; lines < maxLines && s.pos < len(s.data); lines++ {
		end := bytes.IndexByte(s.data[s.pos:], '\n')
		adv := end + 1
		if end < 0 {
			end = len(s.data) - s.pos
			adv = end
		}
		if end > maxLineBytes {
			if s.pos > start {
				break
			}
			return Span{}, fmt.Errorf("dqbatch: reading line %d: %w", first, bufio.ErrTooLong)
		}
		s.pos += adv
		s.line++
	}
	if s.pos == start {
		return Span{}, io.EOF
	}
	return Span{Data: s.data[start:s.pos], FirstLine: first}, nil
}

// NextSpan is CutSpan for callers that hold no span storage.
func (s *MmapNDJSONSource) NextSpan(maxLines int) (Span, error) { return s.CutSpan(nil, maxLines) }

// DecodeSpan decodes one span through the shared NDJSON decoder. Safe for
// concurrent use across spans: it reads only the span's bytes, never the
// source's cursor.
func (s *MmapNDJSONSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	return decodeNDJSONSpan(sp, dst, bad)
}

// OpenFileSource opens path and returns the fastest Source this platform
// offers for it, plus a closer releasing the file and any mapping. Regular
// non-empty files are memory-mapped when the platform allows: NDJSON gets
// the zero-copy MmapNDJSONSource, CSV a CSVSource reading the mapping
// through a bytes.Reader (its cutter copies each span, but the read side
// skips the file-read copies). Pipes, devices, empty files and platforms
// without mmap fall back to the portable bufio sources. Every source it
// returns cuts spans on Run's producer and decodes them in the pool.
// format is "csv" or "ndjson"; "" selects CSV for a .csv extension and
// NDJSON otherwise, matching the CLI.
func OpenFileSource(path, format string) (Source, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if format == "" {
		if strings.EqualFold(filepath.Ext(path), ".csv") {
			format = "csv"
		} else {
			format = "ndjson"
		}
	}
	src, closer, err := fileSource(f, format)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, closer, nil
}

// fileSource builds the best source for an open file: mmap when f is a
// regular, non-empty, address-space-sized file on an mmap-capable
// platform; bufio otherwise. The returned closer owns f.
func fileSource(f *os.File, format string) (Source, func() error, error) {
	if mmapAvailable {
		if st, err := f.Stat(); err == nil &&
			st.Mode().IsRegular() && st.Size() > 0 && int64(int(st.Size())) == st.Size() {
			if data, unmap, err := mmapFile(f, st.Size()); err == nil {
				closer := func() error {
					err := unmap()
					if cerr := f.Close(); err == nil {
						err = cerr
					}
					return err
				}
				if format == "csv" {
					return NewCSVSource(bytes.NewReader(data)), closer, nil
				}
				return NewMmapNDJSONSource(data), closer, nil
			}
			// Mapping failed (exotic filesystem, address space): the bufio
			// path reads the same bytes.
		}
	}
	if format == "csv" {
		return NewCSVSource(f), f.Close, nil
	}
	return NewNDJSONSource(f), f.Close, nil
}
