// The encoding/json oracle for the single NDJSON decoder: every NDJSON
// source now decodes through fastDecodeLine, so the fast path is checked
// directly against slowDecodeLine (json.Unmarshal + scalarString) — it may
// bail, but whatever it accepts must land exactly the cells the oracle
// produces.
package dqbatch

import (
	"bytes"
	"math"
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
	if !fastDecodeLine(raw, &fast) {
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

// checkSpanMatchesSlow decodes doc as one span into one batch, the way
// every NDJSON source does, and holds the result to slowDecodeLine applied
// line by line: the same row count, the same rows and the same malformed
// lines, with their numbers and error texts. Unlike checkFastMatchesSlow,
// each line lands in a batch that already holds earlier rows, so columns
// created by earlier lines, the predicted field order and AbortRow past
// row 0 all come into play.
func checkSpanMatchesSlow(t *testing.T, doc []byte) {
	t.Helper()
	type badLine struct {
		line int64
		err  string
	}
	var fast, slow dqruntime.ColumnBatch
	var fastBad, slowBad []badLine
	rows := decodeNDJSONSpan(Span{Data: doc, FirstLine: 1}, &fast, func(line int64, err error) {
		fastBad = append(fastBad, badLine{line, err.Error()})
	})
	slowRows := 0
	for i, raw := range bytes.Split(doc, []byte("\n")) {
		raw = bytes.TrimSuffix(raw, []byte("\r"))
		if len(trimSpaceBytes(raw)) == 0 {
			continue
		}
		slowRows += slowDecodeLine(raw, int64(i+1), &slow, func(line int64, err error) {
			slowBad = append(slowBad, badLine{line, err.Error()})
		})
	}
	if rows != slowRows || fast.Rows() != slowRows {
		t.Fatalf("decoded %d rows (batch holds %d), line by line gives %d, on %q", rows, fast.Rows(), slowRows, doc)
	}
	// RowView shows raw values; the kinds and parsed values must line up
	// with them too.
	for _, c := range fast.Columns() {
		if len(c.Kinds) != rows || len(c.Raw) != rows {
			t.Fatalf("column %q holds %d cells for %d rows on %q", c.Name, len(c.Kinds), rows, doc)
		}
		sc := slow.Col(c.Name)
		for r, k := range c.Kinds {
			sk := dqruntime.CellMissing
			if sc != nil {
				sk = sc.Kinds[r]
			}
			if k != sk ||
				k == dqruntime.CellInt && c.Int(r) != sc.Int(r) ||
				k == dqruntime.CellFloat && math.Float64bits(c.Float(r)) != math.Float64bits(sc.Float(r)) ||
				k == dqruntime.CellBool && c.Bool(r) != sc.Bool(r) {
				t.Fatalf("column %q row %d: kind or parsed value diverged on %q", c.Name, r, doc)
			}
		}
	}
	for r := 0; r < rows; r++ {
		got := fast.RowView(r, dqruntime.Record{})
		want := slow.RowView(r, dqruntime.Record{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d diverged on %q:\nspan: %q\nslow: %q", r, doc, got, want)
		}
	}
	if !reflect.DeepEqual(fastBad, slowBad) {
		t.Fatalf("malformed lines diverged on %q:\nspan: %v\nslow: %v", doc, fastBad, slowBad)
	}
}

// FuzzFlatJSONSpan holds a whole span's decode to the line-by-line
// encoding/json oracle (see checkSpanMatchesSlow). The seeds repeat, drop,
// permute and duplicate keys, put "a" next to "ab", and create columns on
// the slow path from escaped names that plain keys then hit.
func FuzzFlatJSONSpan(f *testing.F) {
	f.Add([]byte(trickyNDJSON()))
	for _, raw := range trickyLines() {
		f.Add(raw)
	}
	for _, doc := range []string{
		// permuted
		`{"a":"1","b":"2","c":"3"}` + "\n" + `{"c":"4","a":"5","b":"6"}` + "\n" + `{"b":"7","c":"8","a":"9"}`,
		// missing
		`{"a":"1","b":"2","c":"3"}` + "\n" + `{"a":"4","c":"6"}` + "\n" + `{"b":"7"}` + "\n{}\n" + `{"c":"8"}`,
		// prefix keys
		`{"a":"1","ab":"2"}` + "\n" + `{"ab":"3","a":"4"}` + "\n" + `{"a":"5","abc":"6","ab":"7"}`,
		// duplicates right after predicted hits
		`{"a":"1","b":"2"}` + "\n" + `{"a":"3","a":"4"}` + "\n" + `{"a":"5","b":"6","b":"7"}` + "\n" + `{"a":"8","b":"9"}`,
		// escaped names first seen on the slow path
		`{"a\u0062":"1"}` + "\n" + `{"ab":"2","a":"3"}` + "\n" + `{"a":"4","a\u0062":"5"}` + "\n" + `{"ab":"6","ab":"7"}`,
		// AbortRow past row 0, after a new column and after a hit
		`{"a":"1"}` + "\n" + `{"a":"2","new":"x","z":[1]}` + "\n" + `{"a":"3","b":null}` + "\r\n" + `{"new":"y","a":"4"}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkSpanMatchesSlow(t, doc)
	})
}

// TestPlainPrefixMatchesByteRule holds the word-at-a-time scan to the
// byte-at-a-time rule for every byte value at every offset of buffers of
// 1–17 bytes, so each length ends in a different mix of whole words and
// tail bytes. The second filler holds the plain bytes a borrow out of a
// flagged byte below them would also flag ('#' is '"'+1, ']' is '\\'+1,
// and ' ' is 0x20 itself), so the lowest flag must be the probed byte.
func TestPlainPrefixMatchesByteRule(t *testing.T) {
	byByte := func(b []byte) int {
		for i, c := range b {
			if c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
				return i
			}
		}
		return len(b)
	}
	for _, filler := range []string{"a", "# ]"} {
		for n := 1; n <= 17; n++ {
			buf := make([]byte, n)
			for at := 0; at < n; at++ {
				for v := 0; v < 256; v++ {
					for i := range buf {
						buf[i] = filler[i%len(filler)]
					}
					buf[at] = byte(v)
					if got, want := plainPrefix(buf), byByte(buf); got != want {
						t.Fatalf("plainPrefix(%q) = %d, want %d", buf, got, want)
					}
				}
			}
		}
	}
}
