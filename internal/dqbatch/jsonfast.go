package dqbatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// NDJSON decoding: every NDJSON read path — streamed or memory-mapped,
// engine or BuildKeySet, Next or NextBatch — decodes through
// decodeNDJSONSpan. Its fast path parses the common record shape — a flat
// JSON object of unescaped strings, numbers and booleans — straight out of
// the span bytes, skipping encoding/json's reflection and intermediate
// map[string]any entirely. Anything unusual (escape sequences, invalid
// UTF-8, null or nested values, duplicate keys, any syntax the scanner is
// not certain about) bails out to slowDecodeLine, the json.Unmarshal +
// scalarString oracle, so the accept/reject decision and every error text
// are encoding/json's. TestFastDecodeMatchesSlow and FuzzFlatJSON pin
// that equivalence line by line.

// decodeNDJSONSpan decodes every line of sp into dst — fast path first,
// slow path on bail — reporting malformed lines through bad in line order,
// and returns the rows appended. Blank lines are skipped and a trailing CR
// is stripped, as bufio.ScanLines does. Oversized lines cannot appear
// here: the span cutters never put one in a span.
func decodeNDJSONSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	data := sp.Data
	line := sp.FirstLine - 1
	n := 0
	var names [][]byte
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
		if fastDecodeLine(raw, dst, &names) {
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
// names is a reused scratch of this row's key slices for duplicate-key
// detection; the slices alias raw and die with the call.
func fastDecodeLine(raw []byte, dst *dqruntime.ColumnBatch, names *[][]byte) bool {
	i, n := 0, len(raw)
	skipWS := func() {
		for i < n && asciiSpace(raw[i]) {
			i++
		}
	}
	bail := func() bool {
		dst.AbortRow()
		return false
	}
	*names = (*names)[:0]
	skipWS()
	if i >= n || raw[i] != '{' {
		return bail()
	}
	i++
	skipWS()
	if i < n && raw[i] == '}' {
		// Empty object: a record with no fields, same as the row path's
		// empty map.
		i++
		skipWS()
		if i != n {
			return bail()
		}
		dst.EndRow()
		return true
	}
	for {
		skipWS()
		if i >= n || raw[i] != '"' {
			return bail()
		}
		i++
		keyStart := i
		for i < n && raw[i] != '"' {
			// Escaped, control or non-ASCII key bytes: let encoding/json
			// decode (and validate) them.
			if raw[i] == '\\' || raw[i] < 0x20 || raw[i] >= utf8.RuneSelf {
				return bail()
			}
			i++
		}
		if i >= n {
			return bail()
		}
		key := raw[keyStart:i]
		i++
		for _, seen := range *names {
			if string(seen) == string(key) {
				// Duplicate key: map semantics keep the last value; only the
				// slow path reproduces that.
				return bail()
			}
		}
		*names = append(*names, key)
		skipWS()
		if i >= n || raw[i] != ':' {
			return bail()
		}
		i++
		skipWS()
		if i >= n {
			return bail()
		}
		var val string
		switch c := raw[i]; {
		case c == '"':
			i++
			start := i
			ascii := true
			for i < n && raw[i] != '"' {
				if raw[i] == '\\' || raw[i] < 0x20 {
					return bail()
				}
				if raw[i] >= utf8.RuneSelf {
					ascii = false
				}
				i++
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
			val = string(vb)
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
			// null, nested objects/arrays, or garbage: the slow path either
			// produces the canonical "unsupported value type" record error
			// or the canonical decode error.
			return bail()
		}
		dst.SetFieldBytes(key, val)
		skipWS()
		if i >= n {
			return bail()
		}
		if raw[i] == ',' {
			i++
			continue
		}
		if raw[i] != '}' {
			return bail()
		}
		i++
		skipWS()
		if i != n {
			return bail()
		}
		dst.EndRow()
		return true
	}
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
// rendering, so the token bytes become the cell directly.
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
		return string(tok), true
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
// was appended.
func slowDecodeLine(raw []byte, line int64, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		bad(line, err)
		return 0
	}
	for k, v := range obj {
		str, err := scalarString(v)
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
