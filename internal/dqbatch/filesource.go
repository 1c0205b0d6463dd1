package dqbatch

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
)

// OpenFileSource opens path and returns the source that reads it, plus a
// closer releasing the file. A file is read through the same bufio
// cutters as stdin, so a file and a pipe of the same bytes yield the same
// report, and memory stays bounded by the chunk free list whatever the
// file's size. format is "csv" or "ndjson"; "" selects CSV for a .csv
// extension and NDJSON otherwise, matching the CLI.
func OpenFileSource(path, format string) (Source, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if format == "csv" || format == "" && strings.EqualFold(filepath.Ext(path), ".csv") {
		return NewCSVSource(f), f.Close, nil
	}
	return NewNDJSONSource(f), f.Close, nil
}

// NewMmapNDJSONSource reads an in-memory NDJSON document. It is
// NewNDJSONSource over a bytes.Reader, kept under the name the benchmark
// harness reads in-memory inputs with.
func NewMmapNDJSONSource(data []byte) *NDJSONSource {
	return NewNDJSONSource(bytes.NewReader(data))
}
