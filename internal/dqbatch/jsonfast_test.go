// The encoding/json oracle for the single NDJSON decoder: every NDJSON
// source now decodes through fastDecodeLine, so the fast path is checked
// directly against slowDecodeLine (json.Unmarshal + scalarString) — it may
// bail, but whatever it accepts must land exactly the cells the oracle
// produces.
package dqbatch

import (
	"reflect"
	"strings"
	"testing"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// checkFastMatchesSlow asserts that fastDecodeLine either bails, leaving
// no partial cells behind, or appends exactly the row slowDecodeLine
// appends. It reports whether the fast path accepted the line.
func checkFastMatchesSlow(t *testing.T, raw []byte) bool {
	t.Helper()
	var fast, slow dqruntime.ColumnBatch
	var names [][]byte
	if !fastDecodeLine(raw, &fast, &names) {
		for _, c := range fast.Columns() {
			if fast.Rows() != 0 || len(c.Raw) != 0 {
				t.Fatalf("fast path bailed on %q but left cells behind", raw)
			}
		}
		return false
	}
	var slowErr error
	if slowDecodeLine(raw, 1, &slow, func(_ int64, err error) { slowErr = err }) != 1 {
		t.Fatalf("fast path accepted %q; encoding/json rejects it: %v", raw, slowErr)
	}
	got := fast.RowView(0, dqruntime.Record{})
	want := slow.RowView(0, dqruntime.Record{})
	if fast.Rows() != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("cells diverged on %q:\nfast: %q\nslow: %q", raw, got, want)
	}
	return true
}

// trickyLines are trickyNDJSON's lines as the span decoder sees them (CR
// stripped).
func trickyLines() [][]byte {
	var out [][]byte
	for _, l := range strings.Split(trickyNDJSON(), "\n") {
		out = append(out, []byte(strings.TrimSuffix(l, "\r")))
	}
	return out
}

func TestFastDecodeMatchesSlow(t *testing.T) {
	accepted := 0
	for _, raw := range trickyLines() {
		if checkFastMatchesSlow(t, raw) {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("fast path accepted no fixture line; the oracle check is vacuous")
	}
}

func FuzzFlatJSON(f *testing.F) {
	for _, raw := range trickyLines() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkFastMatchesSlow(t, raw)
	})
}
