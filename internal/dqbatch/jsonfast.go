package dqbatch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// NDJSON decoding: every NDJSON read path — engine, NextBatch or
// BuildKeySet — decodes through decodeNDJSONSpan.
// Its fast path parses the common record shape — a flat JSON object of
// unescaped strings, numbers and booleans — straight out of the span
// bytes, skipping encoding/json's reflection and intermediate
// map[string]any entirely. A line that repeats its predecessor's keys
// and layout passes each key in one comparison with a record template
// (recordTemplate), so it scans only its values. Anything unusual (escape
// sequences, invalid UTF-8, null or nested values, duplicate keys, any
// syntax the scanner is not certain about) bails out to slowDecodeLine,
// the json.Unmarshal + scalarString oracle, so the accept/reject decision
// and every error text are encoding/json's. TestFastDecodeMatchesSlow and
// FuzzFlatJSON pin that equivalence line by line; FuzzFlatJSONSpan and
// TestTemplateMissAtEveryField pin it across the rows of a whole span,
// where the template hits and misses.

// view returns b as a string that shares b's bytes, so a decoded cell
// costs no copy and no allocation. The string is valid only while those
// bytes stay unchanged, which gives every cell the fast path decodes one
// lifetime rule: a cell is valid while its chunk is in the pipeline. Run
// writes a chunk's span buffer again only after an eval worker has
// returned the chunk to the free list and the producer has reset its
// batch, and BuildKeySet resets its batch before each cut. A cell that
// must outlive its chunk is copied where it is kept: uniqTable.put,
// keyTally.insert, dqruntime.AddKeys, ColumnBatch.RowView and NextBatch's
// fresh span storage. b must never be a bufio.Scanner's own buffer, which
// the next Scan overwrites; the cutters copy lines into the chunk first.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// recordTemplate is the shape of the span's last line that decoded
// completely on the fast path, for as many fields as it holds. Field k's
// stretch is the bytes from just past the previous value (past its closing
// quote), or from the line's start, through the colon, any whitespace and,
// for a string, the opening quote: {"first_name":" then ,"last_name":".
// col[k] is the column the field landed in. A line whose field k starts
// with the same stretch is past its key in one bytes comparison, and that
// is safe: the general key path accepted those very bytes, at the same
// place in a record, as a plain-ASCII key and its colon, and within one
// span a key always lands in the same column of the same batch. Only the
// value is left to scan and check, and the duplicate-cell test still runs.
// A stretch views the span's bytes, so a template lives for one
// decodeNDJSONSpan call.
type recordTemplate struct {
	n       int
	stretch [16][]byte
	col     [16]int
}

// decodeNDJSONSpan decodes every line of sp into dst — fast path first,
// slow path on bail — reporting malformed lines through bad in line order,
// and returns the rows appended. Blank lines are skipped and a trailing CR
// is stripped, as bufio.ScanLines does. Oversized lines cannot appear
// here: the span cutters never put one in a span.
func decodeNDJSONSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	// fastDecodeLine matches each line against tpl and records it in next,
	// which replaces tpl only when the line decodes completely.
	var tpls [2]recordTemplate
	tpl, next := &tpls[0], &tpls[1]
	data := sp.Data
	line := sp.FirstLine - 1
	n := 0
	for len(data) > 0 {
		var raw []byte
		if j := bytes.IndexByte(data, '\n'); j >= 0 {
			raw, data = data[:j], data[j+1:]
		} else {
			raw, data = data, nil
		}
		line++
		if len(raw) > 0 && raw[len(raw)-1] == '\r' {
			raw = raw[:len(raw)-1]
		}
		if len(trimSpaceBytes(raw)) == 0 {
			continue
		}
		if fastDecodeLine(raw, dst, tpl, next) {
			tpl, next = next, tpl
			n++
			continue
		}
		n += slowDecodeLine(raw, line, dst, bad)
	}
	return n
}

// fastDecodeLine decodes one line into dst as the current row. It returns
// false — after rolling back any partially appended cells — when the line
// needs the slow path; true means the row was appended (EndRow called).
// Field k first tries tpl's stretch k and takes the general key path on a
// miss; either way the field is recorded in next. It keeps no per-row
// state of its own: the batch reports a duplicate key.
func fastDecodeLine(raw []byte, dst *dqruntime.ColumnBatch, tpl, next *recordTemplate) bool {
	n := len(raw)
	bail := func() bool {
		dst.AbortRow()
		return false
	}
	next.n = 0
	i := 0
	for k := 0; ; k++ {
		from, col := i, -1
		var key []byte
		if k < tpl.n && bytes.HasPrefix(raw[i:], tpl.stretch[k]) {
			i += len(tpl.stretch[k])
			col = tpl.col[k]
		} else {
			i = skipSpace(raw, i)
			if k == 0 {
				if i >= n || raw[i] != '{' {
					return bail()
				}
				i = skipSpace(raw, i+1)
			}
			if i < n && raw[i] == '}' {
				// The record's end. At field 0 it is an empty object: a
				// record with no fields, same as slowDecodeLine's empty map.
				if skipSpace(raw, i+1) != n {
					return bail()
				}
				dst.EndRow()
				return true
			}
			if k > 0 {
				if i >= n || raw[i] != ',' {
					return bail()
				}
				i = skipSpace(raw, i+1)
			}
			if i >= n || raw[i] != '"' {
				return bail()
			}
			i++
			keyStart := i
			i += plainPrefix(raw[i:])
			// An escaped, control or non-ASCII key byte stops the scan short
			// of the closing quote: let encoding/json decode (and validate)
			// it.
			if i >= n || raw[i] != '"' {
				return bail()
			}
			key = raw[keyStart:i]
			i = skipSpace(raw, i+1)
			if i >= n || raw[i] != ':' {
				return bail()
			}
			i++
		}
		// Past the colon, unless the stretch took in a string's opening
		// quote: the value starts after any whitespace, and a string's
		// content after its quote.
		if raw[i-1] != '"' {
			i = skipSpace(raw, i)
			if i < n && raw[i] == '"' {
				i++
			}
		}
		stretch := raw[from:i]
		var val string
		if raw[i-1] == '"' {
			start := i
			ascii := true
			for {
				i += plainPrefix(raw[i:])
				if i >= n || raw[i] == '"' {
					break
				}
				if raw[i] == '\\' || raw[i] < 0x20 {
					return bail()
				}
				ascii = false
				for i < n && raw[i] >= utf8.RuneSelf {
					i++
				}
			}
			if i >= n {
				return bail()
			}
			vb := raw[start:i]
			i++
			// encoding/json coerces invalid UTF-8 to U+FFFD; bail so the
			// slow path applies the same coercion.
			if !ascii && !utf8.Valid(vb) {
				return bail()
			}
			val = view(vb)
		} else {
			if i >= n {
				return bail()
			}
			switch c := raw[i]; {
			case c == 't':
				if n-i < 4 || string(raw[i:i+4]) != "true" {
					return bail()
				}
				val = "true"
				i += 4
			case c == 'f':
				if n-i < 5 || string(raw[i:i+5]) != "false" {
					return bail()
				}
				val = "false"
				i += 5
			case c == '-' || (c >= '0' && c <= '9'):
				tok, rest, ok := scanJSONNumber(raw[i:])
				if !ok {
					return bail()
				}
				i = n - len(rest)
				val, ok = renderNumber(tok)
				if !ok {
					return bail()
				}
			default:
				// null, nested objects/arrays, or garbage: the slow path
				// either produces the canonical "unsupported value type"
				// record error or the canonical decode error.
				return bail()
			}
		}
		// A duplicate key bails: map semantics keep the last value, and
		// only the slow path reproduces that.
		if col < 0 {
			if col = dst.SetFieldBytes(key, val); col < 0 {
				return bail()
			}
		} else if !dst.SetFieldAt(col, val) {
			return bail()
		}
		if k < len(next.col) {
			next.stretch[k], next.col[k] = stretch, col
			next.n = k + 1
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(raw []byte, i int) int {
	for i < len(raw) && asciiSpace(raw[i]) {
		i++
	}
	return i
}

// Word masks for plainPrefix: every byte 0x01, every byte 0x80.
const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// plainPrefix returns the length of b's leading run of bytes a JSON
// string holds verbatim and the fast path takes as is: printable ASCII
// other than '"' and '\\'. It tests eight bytes at a time. In each word it
// flags the bytes equal to '"' or '\\' (x^c has a zero byte there), below
// 0x20, or at or above 0x80, with the has-zero and has-less tricks: x-lsbs*k
// borrows into a byte's top bit exactly where that byte is below k, and
// &^x drops bytes whose own top bit was set. A borrow can also flag a byte
// above a flagged one, never below it, so the lowest flag is exact.
func plainPrefix(b []byte) int {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		q := x ^ (lsbs * '"')
		bs := x ^ (lsbs * '\\')
		m := (q-lsbs)&^q | (bs-lsbs)&^bs | (x-lsbs*0x20)&^x | x
		if m &= msbs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c == '"' || c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	return i
}

// scanJSONNumber consumes one JSON number token (strict JSON grammar: no
// leading zeros, no bare '.', exponent needs digits) and returns the token
// plus the remaining bytes.
func scanJSONNumber(b []byte) (tok, rest []byte, ok bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, nil, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, nil, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	return b[:i], b[i:], true
}

// renderNumber produces the string a JSON number lands in a record as —
// exactly scalarString's FormatFloat(ParseFloat(tok)) round trip. Small
// integer tokens short-circuit: they are their own shortest float64
// rendering, so the cell views the token bytes directly.
func renderNumber(tok []byte) (string, bool) {
	digits := tok
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	plain := true
	for _, c := range digits {
		if c < '0' || c > '9' {
			plain = false
			break
		}
	}
	// Up to 15 digits every integer is exactly representable in float64 and
	// FormatFloat('f', -1) prints it back verbatim (JSON already forbids
	// leading zeros). "-0" is the one token where the round trip and the
	// verbatim bytes agree too ("-0" formats as "-0").
	if plain && len(digits) <= 15 {
		return view(tok), true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return "", false
	}
	return strconv.FormatFloat(f, 'f', -1, 64), true
}

// slowDecodeLine is the canonical per-line decode the fast path defers to:
// json.Unmarshal + scalarString, appending the row to dst on success and
// reporting the decode error through bad otherwise. Returns 1 when a row
// was appended. Fields go in key order: an error names the smallest bad key.
func slowDecodeLine(raw []byte, line int64, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		bad(line, err)
		return 0
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		str, err := scalarString(obj[k])
		if err != nil {
			bad(line, fmt.Errorf("field %q: %w", k, err))
			dst.AbortRow()
			return 0
		}
		dst.SetField(k, str)
	}
	dst.EndRow()
	return 1
}
