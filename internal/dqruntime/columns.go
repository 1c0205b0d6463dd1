package dqruntime

import (
	"math"
	"strconv"
	"strings"
)

// Columnar record batches: instead of one map[string]string per record,
// a batch holds one Column per field with parallel per-row arrays. Each
// cell is decoded and classified exactly once at append time — kind-tagged
// and (when numeric or boolean) parsed — so every check that reads the
// field afterwards pays a slice index instead of a strconv round-trip. A
// lazy row-view adapter rebuilds a Record for checks that have no
// vectorized path.

// CellKind classifies one cell's decoded value.
type CellKind uint8

const (
	// CellMissing marks a field absent from the record entirely.
	CellMissing CellKind = iota
	// CellBlank marks a present value that trims to the empty string.
	CellBlank
	// CellString is a non-blank value that parses as neither number nor
	// Boolean.
	CellString
	// CellInt parses via strconv.ParseInt(trimmed, 10, 64).
	CellInt
	// CellFloat fails integer parsing but parses via strconv.ParseFloat.
	CellFloat
	// CellBool is exactly "true" or "false" after trimming.
	CellBool
)

// Column is one field's cells across a batch: three parallel slices with
// one entry per row, 25 bytes a cell. Read parsed values through Int,
// Float and Bool, which are meaningful only where Kinds says so, and the
// trimmed text through Trim.
type Column struct {
	// Name is the field name.
	Name string
	// Kinds classifies each cell.
	Kinds []CellKind
	// Raw holds the value exactly as delivered ("" for missing cells). The
	// batch stores the string it is given without copying it, and a
	// decoder's cells may view its input buffer, so a value is valid until
	// the batch is reset: copy one that must outlive the batch.
	Raw []string
	// vals holds each cell's parsed value: the int64 bits of a CellInt,
	// the float64 bits of a CellFloat, 1 or 0 for a CellBool, 0 otherwise.
	vals []uint64
	// ocl memoizes the boxed OCL-domain values (see OCLValues).
	ocl []any
}

// Trim returns row r's value with surrounding whitespace removed,
// strings.TrimSpace(Raw[r]).
func (c *Column) Trim(r int) string { return strings.TrimSpace(c.Raw[r]) }

// Int returns row r's parsed value when Kinds[r] is CellInt.
func (c *Column) Int(r int) int64 { return int64(c.vals[r]) }

// Float returns row r's parsed value when Kinds[r] is CellFloat.
func (c *Column) Float(r int) float64 { return math.Float64frombits(c.vals[r]) }

// Bool returns row r's parsed value when Kinds[r] is CellBool.
func (c *Column) Bool(r int) bool { return c.vals[r] != 0 }

// classifyNumber decides whether a trimmed, non-blank cell is an integer,
// a float or plain text, with exactly the outcome of trying
// strconv.ParseInt(s, 10, 64) and then strconv.ParseFloat(s, 64) — but
// from the cell's shape, so text never pays for a failed parse's
// *NumError allocations:
//
//   - a body (s after its sign) that is empty or starts with anything but
//     a digit, '.', i, I, n or N is CellString: neither parser accepts it,
//     so names and e-mail addresses stop at their first byte;
//   - [+-]?[0-9]{1,18} is CellInt, parsed inline (it cannot overflow);
//   - a decimal float literal goes to ParseFloat, which can then fail
//     only on range ("1e400" stays CellString);
//   - without '_', a 0x/0X prefix after the sign, or an inf, infinity or
//     nan body (in any case), neither parser accepts s: CellString;
//   - anything else (hex floats, underscores, 19+ digits) gets the trial
//     parse.
//
// FuzzClassifyCell holds it, through appendCell, to the trial parse for
// any string.
func classifyNumber(s string) (CellKind, int64, float64) {
	body := s
	if len(body) > 0 && (body[0] == '+' || body[0] == '-') {
		body = body[1:]
	}
	if len(body) == 0 {
		return CellString, 0, 0
	}
	switch c := body[0]; {
	case '0' <= c && c <= '9', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return CellString, 0, 0
	}
	switch digits := leadingDigits(body); {
	case digits == len(body) && digits <= 18:
		n := digitsValue(body)
		if s[0] == '-' {
			n = -n
		}
		return CellInt, n, 0
	case digits == len(body):
		// 19 digits or more may overflow int64: trial parse.
	case isDecimalFloat(body, digits):
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return CellFloat, 0, f
		}
		return CellString, 0, 0
	case strings.IndexByte(body, '_') < 0 &&
		!(len(body) > 1 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) &&
		!specialFloat(body):
		return CellString, 0, 0
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return CellInt, n, 0
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return CellFloat, 0, f
	}
	return CellString, 0, 0
}

// specialFloat reports whether body spells inf, infinity or nan in any
// case.
func specialFloat(body string) bool {
	switch len(body) {
	case 3:
		return strings.EqualFold(body, "inf") || strings.EqualFold(body, "nan")
	case 8:
		return strings.EqualFold(body, "infinity")
	}
	return false
}

// digitsValue returns the value of s, at most 18 ASCII digits, which
// cannot overflow an int64.
func digitsValue(s string) int64 {
	var n int64
	for i := 0; i < len(s); i++ {
		n = n*10 + int64(s[i]-'0')
	}
	return n
}

// leadingDigits returns the length of s's leading run of ASCII digits.
func leadingDigits(s string) int {
	i := 0
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// isDecimalFloat reports whether body (s after its sign, whose first
// intDigits bytes are digits) is a decimal float literal with a point or
// an exponent: digits, an optional point and more digits — at least one
// digit in all — then optionally e or E, an optional sign and one or
// more digits.
func isDecimalFloat(body string, intDigits int) bool {
	i := intDigits
	mantissa := intDigits
	if i < len(body) && body[i] == '.' {
		frac := leadingDigits(body[i+1:])
		i += 1 + frac
		mantissa += frac
	}
	if mantissa == 0 {
		return false
	}
	if i < len(body) && (body[i] == 'e' || body[i] == 'E') {
		i++
		if i < len(body) && (body[i] == '+' || body[i] == '-') {
			i++
		}
		exp := leadingDigits(body[i:])
		if exp == 0 {
			return false
		}
		i += exp
	}
	return i == len(body)
}

// textStart flags the first bytes that make a cell CellString at once:
// printable ASCII ('!' through DEL) other than a sign, a digit, '.' and
// the t, f, i, I, n and N that begin true, false, inf and nan.
// strings.TrimSpace keeps such a byte, and neither the Boolean test nor
// classifyNumber accepts a cell that starts with it.
var textStart = func() (t [256]bool) {
	for c := '!'; c <= 0x7f; c++ {
		t[c] = true
	}
	for _, c := range "+-.0123456789tfiInN" {
		t[c] = false
	}
	return t
}()

// appendCell classifies and appends one present cell. The first byte
// settles most cells: text at once (textStart), or an unsigned integer of
// at most 18 digits parsed inline. Any other cell is trimmed, then tested
// for blank, Boolean and number (classifyNumber) in that order.
func (c *Column) appendCell(raw string) {
	kind := CellString
	var v uint64
	switch {
	case raw == "":
		kind = CellBlank
	case textStart[raw[0]]:
	case len(raw) <= 18 && leadingDigits(raw) == len(raw):
		kind, v = CellInt, uint64(digitsValue(raw))
	default:
		switch trimmed := strings.TrimSpace(raw); trimmed {
		case "":
			kind = CellBlank
		case "true":
			kind, v = CellBool, 1
		case "false":
			kind = CellBool
		default:
			var iv int64
			var fv float64
			kind, iv, fv = classifyNumber(trimmed)
			v = uint64(iv)
			if kind == CellFloat {
				v = math.Float64bits(fv)
			}
		}
	}
	c.Kinds = append(c.Kinds, kind)
	c.Raw = append(c.Raw, raw)
	c.vals = append(c.vals, v)
}

// appendMissing appends one absent cell.
func (c *Column) appendMissing() {
	c.Kinds = append(c.Kinds, CellMissing)
	c.Raw = append(c.Raw, "")
	c.vals = append(c.vals, 0)
}

// padTo appends missing cells until the column has n entries.
func (c *Column) padTo(n int) {
	for len(c.Kinds) < n {
		c.appendMissing()
	}
}

func (c *Column) reset(name string) {
	c.Name = name
	c.Kinds = c.Kinds[:0]
	c.Raw = c.Raw[:0]
	c.vals = c.vals[:0]
	c.ocl = nil
}

// OCLValues returns the column's cells lifted into the OCL domain, exactly
// as recordOCLValue lifts row values: missing and blank cells are null,
// Booleans and numbers are their parsed values, everything else the
// trimmed string. The boxed slice is built once per batch and memoized;
// consecutive equal values share one boxed interface value, so low-
// cardinality columns (enum-like fields, constant columns) box a handful
// of times instead of once per row. Not safe for concurrent first use —
// a batch belongs to one worker at a time.
func (c *Column) OCLValues() []any {
	if c.ocl != nil || len(c.Kinds) == 0 {
		return c.ocl
	}
	vals := make([]any, len(c.Kinds))
	lastKind := CellMissing
	var lastInt int64
	var lastFloat float64
	var lastStr string
	var lastBoxed any
	for i, k := range c.Kinds {
		switch k {
		case CellMissing, CellBlank:
			// vals[i] stays nil
		case CellBool:
			vals[i] = c.Bool(i) // bool boxing never allocates
		case CellInt:
			n := c.Int(i)
			if lastKind != CellInt || lastInt != n {
				lastKind, lastInt, lastBoxed = CellInt, n, n
			}
			vals[i] = lastBoxed
		case CellFloat:
			f := c.Float(i)
			if lastKind != CellFloat || lastFloat != f {
				lastKind, lastFloat, lastBoxed = CellFloat, f, f
			}
			vals[i] = lastBoxed
		default:
			s := c.Trim(i)
			if lastKind != CellString || lastStr != s {
				lastKind, lastStr, lastBoxed = CellString, s, s
			}
			vals[i] = lastBoxed
		}
	}
	c.ocl = vals
	return vals
}

// ColumnBatch is one chunk of records in columnar form. Build one with
// SetField or SetFieldBytes and EndRow (the span decoders) or Columnarize
// (tests), and reuse it across chunks with Reset. The batch owns its
// column storage but stores each cell's string as given, without copying:
// a cell that views a decoder's input is valid while that input is
// unchanged, and RowView hands out copies.
type ColumnBatch struct {
	cols   []Column
	byName map[string]int
	rows   int
	// next is the column after the current row's previous field: the
	// column SetFieldBytes tries before the byName lookup.
	next  int
	nulls []any
}

// Rows returns the number of complete rows in the batch.
func (b *ColumnBatch) Rows() int { return b.rows }

// Columns returns the batch's columns in creation order. The slice is the
// batch's own storage; callers must not grow it.
func (b *ColumnBatch) Columns() []Column { return b.cols }

// Col returns the named column, or nil when no record in the batch had the
// field.
func (b *ColumnBatch) Col(name string) *Column {
	if i, ok := b.byName[name]; ok {
		return &b.cols[i]
	}
	return nil
}

// Reset empties the batch for reuse. Column storage keeps its capacity,
// so refilling a batch with chunks of the same shape allocates nothing.
func (b *ColumnBatch) Reset() {
	b.cols = b.cols[:0]
	b.rows = 0
	b.next = 0
	b.nulls = b.nulls[:0]
	clear(b.byName)
}

// col returns the named column, creating (and back-filling) it on demand.
func (b *ColumnBatch) col(name string) *Column {
	if i, ok := b.byName[name]; ok {
		return &b.cols[i]
	}
	return &b.cols[b.addCol(name)]
}

// addCol creates the named column, back-filled to the current row, and
// returns its index.
func (b *ColumnBatch) addCol(name string) int {
	if b.byName == nil {
		b.byName = make(map[string]int, 8)
	}
	if len(b.cols) < cap(b.cols) {
		b.cols = b.cols[:len(b.cols)+1] // a recycled slot: reuse its storage
	} else {
		b.cols = append(b.cols, Column{})
	}
	i := len(b.cols) - 1
	b.cols[i].reset(name)
	b.cols[i].padTo(b.rows)
	b.byName[name] = i
	return i
}

// SetField appends the current row's value for one field. Fields may
// arrive in any order; each field at most once per row. The batch stores
// raw as given, without copying it.
func (b *ColumnBatch) SetField(name, raw string) {
	b.col(name).appendCell(raw)
}

// SetFieldBytes is SetField for decoders that hold the field name as a
// byte slice into their input buffer. It predicts that records repeat
// their predecessor's key order: it first compares name with the column
// after the row's previous field, and looks the name up in the byName
// map only on a miss. Neither path allocates once the column exists, so
// steady-state decoding never materializes the key. The batch stores raw
// as given, without copying it, so a decoder may pass a string that views
// its input. It returns the index of the column the cell landed in, or
// -1, appending nothing, when the row already holds a cell for name — a
// duplicate key, found in O(1).
func (b *ColumnBatch) SetFieldBytes(name []byte, raw string) int {
	i := b.next
	if i >= len(b.cols) || b.cols[i].Name != string(name) {
		var ok bool
		if i, ok = b.byName[string(name)]; !ok {
			i = b.addCol(b.nextName(name))
		}
	}
	if !b.SetFieldAt(i, raw) {
		return -1
	}
	return i
}

// SetFieldAt is SetFieldBytes for a decoder that already knows the
// field's column: an index SetFieldBytes returned since the last Reset.
// It returns false, appending nothing, when the row already holds a cell
// in that column.
func (b *ColumnBatch) SetFieldAt(i int, raw string) bool {
	c := &b.cols[i]
	if len(c.Kinds) > b.rows {
		return false
	}
	c.appendCell(raw)
	b.next = i + 1
	return true
}

// nextName returns name as a string for addCol. When the recycled slot
// addCol fills next held the same name, it returns that string, so
// refilling a batch with chunks of the same shape allocates no names.
func (b *ColumnBatch) nextName(name []byte) string {
	if n := len(b.cols); n < cap(b.cols) {
		if prev := b.cols[:n+1][n].Name; prev == string(name) {
			return prev
		}
	}
	return string(name)
}

// EndRow completes the current row, back-filling missing cells in columns
// the row did not touch.
func (b *ColumnBatch) EndRow() {
	b.rows++
	b.next = 0
	for i := range b.cols {
		b.cols[i].padTo(b.rows)
	}
}

// AbortRow discards any cells appended since the last EndRow, undoing a
// row whose decoding failed partway (the whole record is malformed, so
// none of its fields may land in the batch).
func (b *ColumnBatch) AbortRow() {
	b.next = 0
	for i := range b.cols {
		c := &b.cols[i]
		if len(c.Kinds) > b.rows {
			c.Kinds = c.Kinds[:b.rows]
			c.Raw = c.Raw[:b.rows]
			c.vals = c.vals[:b.rows]
		}
	}
}

// NullValues returns a shared all-null value column sized to the batch,
// for binding fields no column carries.
func (b *ColumnBatch) NullValues() []any {
	for len(b.nulls) < b.rows {
		b.nulls = append(b.nulls, nil)
	}
	return b.nulls[:b.rows]
}

// RowView fills scratch with row i's present fields (raw values), reusing
// the map — the adapter that lets row-oriented checks run over a columnar
// batch. The returned map is valid until the next RowView call on the same
// scratch. The values are copies, so a check may keep them past the batch.
func (b *ColumnBatch) RowView(i int, scratch Record) Record {
	clear(scratch)
	for ci := range b.cols {
		c := &b.cols[ci]
		if c.Kinds[i] != CellMissing {
			scratch[c.Name] = strings.Clone(c.Raw[i])
		}
	}
	return scratch
}

// Columnarize appends records to the batch in row order — the bulk loader
// tests and benchmarks build batches with.
func (b *ColumnBatch) Columnarize(recs []Record) {
	for _, r := range recs {
		for k, v := range r {
			b.SetField(k, v)
		}
		b.EndRow()
	}
}
