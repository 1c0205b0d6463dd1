// The encoding/json oracle for the single NDJSON decoder: every NDJSON
// source now decodes through fastDecodeLine, so the fast path is checked
// directly against slowDecodeLine (json.Unmarshal + scalarString) — it may
// bail, but whatever it accepts must land exactly the cells the oracle
// produces.
package dqbatch

import (
	"bytes"
	"fmt"
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
	if !fastDecodeLine(raw, &fast, &recordTemplate{}, &recordTemplate{}) {
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

// TestFastDecodeMatchesSlow holds each fixture line, decoded alone with an
// empty record template, to the oracle. Lines decoded against their
// predecessor's template are held to it by TestTemplateMissAtEveryField
// and FuzzFlatJSONSpan.
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

// TestSlowDecodeNamesSmallestKey: a line with several values the slow
// path rejects gets an error naming the smallest of their keys, on every
// decode, whatever order Go's map iteration takes.
func TestSlowDecodeNamesSmallestKey(t *testing.T) {
	raw := []byte(`{"b":null,"a":[1]}`)
	for i := 0; i < 100; i++ {
		var batch dqruntime.ColumnBatch
		var got error
		n := decodeNDJSONSpan(Span{Data: raw, FirstLine: 1}, &batch, func(_ int64, err error) { got = err })
		if n != 0 || got == nil || !strings.HasPrefix(got.Error(), `field "a": `) {
			t.Fatalf("decode %d: %d rows, error %v; want field \"a\" named", i, n, got)
		}
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
		// two values the slow path rejects: the error names the smaller key
		"A\n{\"\":null,\"B\":null}\r",
	} {
		f.Add([]byte(doc))
	}
	for _, doc := range templateMissSpans() {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkSpanMatchesSlow(t, doc)
	})
}

// templateMissSpans returns three-line spans, base record, variant, base
// record, where the variant departs from the base at one field k, for
// every k of a six-field base with string, number and Boolean values,
// written compact and spaced. The variant's record template is the
// base's, so it hits on every field before k, and field k and what
// follows it must decode exactly as the oracle does, whether they hit,
// miss or bail. The variants:
//   - whitespace added or removed around k's colon or the separator
//     before k;
//   - k's key renamed, extended, swapped with the next key, or made a
//     duplicate of an earlier or of the next key (the next field's
//     template hit then lands in a column the row already filled);
//   - k's value turned into a string, number, Boolean, null or array, or
//     a string with an escape, a control byte, or valid or invalid
//     non-ASCII;
//   - k dropped, a field added after k, the line cut inside k's value,
//     and bytes after the closing brace.
func templateMissSpans() []string {
	type field struct{ sep, key, colon, val string }
	render := func(fs []field, tail string) string {
		var b strings.Builder
		for _, f := range fs {
			b.WriteString(f.sep + `"` + f.key + `"` + f.colon + f.val)
		}
		return b.String() + tail
	}
	var spans []string
	for _, style := range []struct{ open, comma, colon string }{{"{", ",", ":"}, {"{ ", " , ", " : "}} {
		var base []field
		for i, kv := range [][2]string{{"name", `"Ada"`}, {"age", "36"}, {"ok", "true"},
			{"email", `"ada@example.org"`}, {"score", "-1.5"}, {"city", `"London"`}} {
			sep := style.comma
			if i == 0 {
				sep = style.open
			}
			base = append(base, field{sep, kv[0], style.colon, kv[1]})
		}
		baseLine := render(base, "}")
		add := func(variant string) {
			spans = append(spans, baseLine+"\n"+variant+"\n"+baseLine)
		}
		for k := range base {
			vary := func(edit func(fs []field)) {
				fs := append([]field(nil), base...)
				edit(fs)
				add(render(fs, "}"))
			}
			f := base[k]
			for _, ws := range []string{" " + f.colon, f.colon + " ", strings.TrimSpace(f.colon)} {
				vary(func(fs []field) { fs[k].colon = ws })
			}
			for _, ws := range []string{" " + f.sep, f.sep + " ", strings.TrimSpace(f.sep)} {
				vary(func(fs []field) { fs[k].sep = ws })
			}
			vary(func(fs []field) { fs[k].key = "zz" })
			vary(func(fs []field) { fs[k].key += "b" })
			vary(func(fs []field) { fs[k].key = base[0].key })
			if k+1 < len(base) {
				vary(func(fs []field) { fs[k].key, fs[k+1].key = fs[k+1].key, fs[k].key })
				vary(func(fs []field) { fs[k].key = base[k+1].key })
			}
			for _, v := range []string{`"s"`, "7", "false", "null", "[]", `"a\"b"`, `"\u00e9"`,
				"\"a\x01b\"", `"é"`, "\"\xff\""} {
				vary(func(fs []field) { fs[k].val = v })
			}
			dropped := append(append([]field(nil), base[:k]...), base[k+1:]...)
			if k == 0 {
				dropped[0].sep = style.open
			}
			add(render(dropped, "}"))
			added := append(append([]field(nil), base[:k+1]...), field{style.comma, "extra", style.colon, `"x"`})
			add(render(append(added, base[k+1:]...), "}"))
			cut := append([]field(nil), base[:k+1]...)
			cut[k].val = cut[k].val[:len(cut[k].val)-1]
			add(render(cut, ""))
		}
		add(render(base, "} x"))
		add(render(base, "}}"))
	}
	return spans
}

// TestTemplateMissAtEveryField holds the record template to the
// line-by-line oracle wherever a line departs from its predecessor (see
// templateMissSpans).
func TestTemplateMissAtEveryField(t *testing.T) {
	for _, doc := range templateMissSpans() {
		checkSpanMatchesSlow(t, []byte(doc))
	}
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

// TestDecodeSpanAllocs pins the views: decoding a span of strings, plain
// integers and booleans into a warmed batch allocates nothing, as no cell
// is copied out of the span and the record template lives on the stack.
// That holds whether every line hits the template (one key order) or
// misses it (lines alternate between two key orders).
func TestDecodeSpanAllocs(t *testing.T) {
	for _, orders := range [][]string{
		{`{"name": "user %d", "email": "u%d@example.org", "score": %d, "ok": %t}`},
		{`{"name": "user %d", "email": "u%d@example.org", "score": %d, "ok": %t}`,
			`{"email": "u%[2]d@example.org", "ok": %[4]t, "name": "user %[1]d", "score": %[3]d}`},
	} {
		var doc bytes.Buffer
		for i := 0; i < 256; i++ {
			fmt.Fprintf(&doc, orders[i%len(orders)]+"\n", i, i, i%11-5, i%2 == 0)
		}
		sp := Span{Data: doc.Bytes(), FirstLine: 1}
		var batch dqruntime.ColumnBatch
		bad := func(line int64, err error) { t.Fatalf("line %d malformed: %v", line, err) }
		decode := func() {
			batch.Reset()
			if n := decodeNDJSONSpan(sp, &batch, bad); n != 256 {
				t.Fatalf("decoded %d rows, want 256", n)
			}
		}
		decode()
		if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
			t.Fatalf("decoding a span of %d key orders into a warmed batch made %v allocations, want 0", len(orders), allocs)
		}
	}
}
