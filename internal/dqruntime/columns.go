package dqruntime

import (
	"strconv"
	"strings"
)

// Columnar record batches: instead of one map[string]string per record,
// a batch holds one Column per field with parallel per-row arrays. Each
// cell is decoded and classified exactly once at append time — trimmed,
// kind-tagged, and (when numeric or boolean) parsed — so every check that
// reads the field afterwards pays a slice index instead of a TrimSpace and
// a strconv round-trip. A lazy row-view adapter rebuilds a Record for
// checks that have no vectorized path.

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

// Column is one field's cells across a batch. The parallel slices all have
// one entry per row; Ints/Floats/Bools entries are meaningful only where
// Kinds says so.
type Column struct {
	// Name is the field name.
	Name string
	// Kinds classifies each cell.
	Kinds []CellKind
	// Raw holds the value exactly as delivered ("" for missing cells);
	// Trim holds strings.TrimSpace(Raw) — sharing Raw's backing when no
	// trimming was needed.
	Raw  []string
	Trim []string
	// Ints, Floats and Bools hold parsed values for CellInt, CellFloat and
	// CellBool cells.
	Ints   []int64
	Floats []float64
	Bools  []bool
	// ocl memoizes the boxed OCL-domain values (see OCLValues).
	ocl []any
}

// classifyNumber decides whether a trimmed, non-blank cell is an integer,
// a float or plain text, with exactly the outcome of trying
// strconv.ParseInt(s, 10, 64) and then strconv.ParseFloat(s, 64) — but
// from the cell's shape, so text never pays for a failed parse's
// *NumError allocations:
//
//   - [+-]?[0-9]{1,18} is CellInt, parsed inline (it cannot overflow);
//   - a decimal float literal goes to ParseFloat, which can then fail
//     only on range ("1e400" stays CellString);
//   - without '_', a 0x/0X prefix after the sign, or an inf, infinity or
//     nan body (in any case), neither parser accepts s: CellString;
//   - anything else (hex floats, underscores, 19+ digits) gets the trial
//     parse.
//
// FuzzClassifyCell holds it to the trial parse for any string.
func classifyNumber(s string) (CellKind, int64, float64) {
	body := s
	if len(body) > 0 && (body[0] == '+' || body[0] == '-') {
		body = body[1:]
	}
	switch digits := leadingDigits(body); {
	case digits == len(body) && digits <= 18:
		if digits == 0 { // "", "+" or "-"
			return CellString, 0, 0
		}
		var n int64
		for i := 0; i < len(body); i++ {
			n = n*10 + int64(body[i]-'0')
		}
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

// appendCell classifies and appends one present cell.
func (c *Column) appendCell(raw string) {
	trimmed := strings.TrimSpace(raw)
	c.Raw = append(c.Raw, raw)
	c.Trim = append(c.Trim, trimmed)
	kind := CellString
	var iv int64
	var fv float64
	var bv bool
	switch {
	case trimmed == "":
		kind = CellBlank
	case trimmed == "true":
		kind, bv = CellBool, true
	case trimmed == "false":
		kind, bv = CellBool, false
	default:
		kind, iv, fv = classifyNumber(trimmed)
	}
	c.Kinds = append(c.Kinds, kind)
	c.Ints = append(c.Ints, iv)
	c.Floats = append(c.Floats, fv)
	c.Bools = append(c.Bools, bv)
}

// appendMissing appends one absent cell.
func (c *Column) appendMissing() {
	c.Kinds = append(c.Kinds, CellMissing)
	c.Raw = append(c.Raw, "")
	c.Trim = append(c.Trim, "")
	c.Ints = append(c.Ints, 0)
	c.Floats = append(c.Floats, 0)
	c.Bools = append(c.Bools, false)
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
	c.Trim = c.Trim[:0]
	c.Ints = c.Ints[:0]
	c.Floats = c.Floats[:0]
	c.Bools = c.Bools[:0]
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
			vals[i] = c.Bools[i] // bool boxing never allocates
		case CellInt:
			n := c.Ints[i]
			if lastKind != CellInt || lastInt != n {
				lastKind, lastInt, lastBoxed = CellInt, n, n
			}
			vals[i] = lastBoxed
		case CellFloat:
			f := c.Floats[i]
			if lastKind != CellFloat || lastFloat != f {
				lastKind, lastFloat, lastBoxed = CellFloat, f, f
			}
			vals[i] = lastBoxed
		default:
			s := c.Trim[i]
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
// BeginRow/SetField/EndRow (streaming decoders) or Columnarize, reuse it
// across chunks with Reset, and slice views out of a larger batch with
// SliceInto.
type ColumnBatch struct {
	cols   []Column
	byName map[string]int
	rows   int
	nulls  []any
	// view marks a batch filled by SliceInto: its column headers and
	// nulls alias another batch's storage.
	view bool
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
// A view (a batch filled by SliceInto) owns no cell storage: its Reset
// zeroes the aliased column headers and drops the aliased nulls, so no
// later fill can append into the batch it was sliced from.
func (b *ColumnBatch) Reset() {
	if b.view {
		clear(b.cols[:cap(b.cols)])
		b.nulls = nil
		b.view = false
	}
	b.cols = b.cols[:0]
	b.rows = 0
	b.nulls = b.nulls[:0]
	clear(b.byName)
}

// col returns the named column, creating (and back-filling) it on demand.
func (b *ColumnBatch) col(name string) *Column {
	if i, ok := b.byName[name]; ok {
		return &b.cols[i]
	}
	if b.byName == nil {
		b.byName = make(map[string]int, 8)
	}
	if len(b.cols) < cap(b.cols) {
		b.cols = b.cols[:len(b.cols)+1] // a recycled slot: reuse its storage
	} else {
		b.cols = append(b.cols, Column{})
	}
	c := &b.cols[len(b.cols)-1]
	c.reset(name)
	c.padTo(b.rows)
	b.byName[name] = len(b.cols) - 1
	return c
}

// SetField appends the current row's value for one field. Fields may
// arrive in any order; each field at most once per row.
func (b *ColumnBatch) SetField(name, raw string) {
	b.col(name).appendCell(raw)
}

// SetFieldBytes is SetField for decoders that hold the field name as a
// byte slice into their input buffer: once the column exists, the map
// lookup via string(name) does not allocate, so steady-state decoding
// never materializes the key.
func (b *ColumnBatch) SetFieldBytes(name []byte, raw string) {
	if i, ok := b.byName[string(name)]; ok {
		b.cols[i].appendCell(raw)
		return
	}
	b.col(string(name)).appendCell(raw)
}

// EndRow completes the current row, back-filling missing cells in columns
// the row did not touch.
func (b *ColumnBatch) EndRow() {
	b.rows++
	for i := range b.cols {
		b.cols[i].padTo(b.rows)
	}
}

// AbortRow discards any cells appended since the last EndRow, undoing a
// row whose decoding failed partway (the whole record is malformed, so
// none of its fields may land in the batch).
func (b *ColumnBatch) AbortRow() {
	for i := range b.cols {
		c := &b.cols[i]
		if len(c.Kinds) > b.rows {
			c.Kinds = c.Kinds[:b.rows]
			c.Raw = c.Raw[:b.rows]
			c.Trim = c.Trim[:b.rows]
			c.Ints = c.Ints[:b.rows]
			c.Floats = c.Floats[:b.rows]
			c.Bools = c.Bools[:b.rows]
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
// scratch.
func (b *ColumnBatch) RowView(i int, scratch Record) Record {
	clear(scratch)
	for ci := range b.cols {
		c := &b.cols[ci]
		if c.Kinds[i] != CellMissing {
			scratch[c.Name] = c.Raw[i]
		}
	}
	return scratch
}

// SliceInto fills dst with a zero-copy view of rows [lo, hi) of b: every
// column header in dst aliases b's cell storage, and dst's own cell
// storage is dropped. dst is marked a view, so its next Reset zeroes the
// aliased headers instead of recycling them; b must not change while the
// view is read. Memoized OCL values slice along when already built, so
// pre-columnarized sources box once for the whole dataset.
func (b *ColumnBatch) SliceInto(dst *ColumnBatch, lo, hi int) {
	dst.view = true
	dst.rows = hi - lo
	dst.cols = dst.cols[:0]
	dst.nulls = nil
	if dst.byName == nil {
		dst.byName = make(map[string]int, len(b.cols))
	} else {
		clear(dst.byName)
	}
	for i := range b.cols {
		src := &b.cols[i]
		col := Column{
			Name:   src.Name,
			Kinds:  src.Kinds[lo:hi],
			Raw:    src.Raw[lo:hi],
			Trim:   src.Trim[lo:hi],
			Ints:   src.Ints[lo:hi],
			Floats: src.Floats[lo:hi],
			Bools:  src.Bools[lo:hi],
		}
		if src.ocl != nil {
			col.ocl = src.ocl[lo:hi]
		}
		dst.cols = append(dst.cols, col)
		dst.byName[src.Name] = i
	}
	if b.nulls != nil && len(b.nulls) >= hi-lo {
		dst.nulls = b.nulls[:hi-lo]
	}
}

// Columnarize appends records to the batch in row order — the bulk loader
// behind in-memory sources and tests.
func (b *ColumnBatch) Columnarize(recs []Record) {
	for _, r := range recs {
		for k, v := range r {
			b.SetField(k, v)
		}
		b.EndRow()
	}
}

// WarmOCLValues builds every column's boxed OCL values eagerly, so chunk
// views sliced from this batch share one boxing pass.
func (b *ColumnBatch) WarmOCLValues() {
	for i := range b.cols {
		b.cols[i].OCLValues()
	}
}
