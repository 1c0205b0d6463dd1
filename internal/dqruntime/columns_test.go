// Parity coverage for the columnar layer: cell classification must agree
// with the row path's value lifting, RowView must reconstruct records
// faithfully, and ValidateBatch must produce — check for check, row for
// row — exactly the verdicts, scores and detail strings the per-record
// Apply path produces, across every stock check type (including the
// row-fallback ConsistencyCheck and the vectorized OCLCheck).
package dqruntime

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"github.com/modeldriven/dqwebre/internal/iso25012"
)

// cellValues are raw field values covering every classification branch:
// blank, padded, integer, float, bool, free text, timestamps, near-numeric
// strings that must survive the plausibility precheck.
var cellValues = []string{
	"", " ", "\t ", "abc", "42", " 17 ", "-8", "true", "false", " true ",
	"3.14", "1e3", "0x1p-2", "inf", "nan", "Infinity", "not-a-number",
	"9223372036854775808", "1_000", "a@b.co", "not@email",
	"2026-08-01T00:00:00Z", "1999-01-01T00:00:00Z", "2020-13-40",
	"2027-03-01T00:00:00Z", "2026-08-08T12:03:00Z", // future-dated: beyond / within MaxSkew
	"0", "6", "true-ish", "-", "+", ".",
}

// liftedEqual compares lifted OCL values, treating NaN as equal to NaN
// (both paths lift "nan" to the same NaN; reflect.DeepEqual would not).
func liftedEqual(a, b any) bool {
	if fa, ok := a.(float64); ok {
		if fb, ok := b.(float64); ok {
			return fa == fb || (math.IsNaN(fa) && math.IsNaN(fb))
		}
	}
	return reflect.DeepEqual(a, b)
}

func TestColumnClassificationMatchesRecordOCLValue(t *testing.T) {
	f := func(raw string) bool {
		var c Column
		c.reset("f")
		c.appendCell(raw)
		got := c.OCLValues()[0]
		want := recordOCLValue(raw)
		return liftedEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatalf("classification property failed: %v", err)
	}
	for _, raw := range cellValues {
		var c Column
		c.reset("f")
		c.appendCell(raw)
		if got, want := c.OCLValues()[0], recordOCLValue(raw); !liftedEqual(got, want) {
			t.Fatalf("appendCell(%q) lifts to %#v, recordOCLValue gives %#v", raw, got, want)
		}
	}
}

// parityFields is the field universe the parity records draw from.
var parityFields = []string{"a", "b", "n", "opt", "email", "ts", "extra"}

// parityRecords builds deterministic pseudo-random records with missing
// fields, blanks and every value shape.
func parityRecords(n int) []Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]Record, n)
	for i := range recs {
		r := Record{}
		for _, f := range parityFields {
			if rng.Intn(4) == 0 {
				continue // field absent entirely
			}
			r[f] = cellValues[rng.Intn(len(cellValues))]
		}
		recs[i] = r
	}
	return recs
}

func parityValidator(t *testing.T) *Validator {
	t.Helper()
	oclChk, err := NewOCLCheck(iso25012.Consistency,
		"n.oclIsUndefined() or opt.oclIsUndefined() or n <= opt")
	if err != nil {
		t.Fatal(err)
	}
	fixedNow := func() time.Time {
		return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	}
	return NewValidator("parity",
		CompletenessCheck{Required: []string{"a", "b"}},
		PrecisionCheck{Field: "n", Lower: -3, Upper: 3},
		PrecisionCheck{Field: "opt", Lower: 0, Upper: 5, Optional: true},
		AccuracyCheck{Field: "email", Pattern: EmailPattern},
		CurrentnessCheck{Field: "ts", MaxAge: 365 * 24 * time.Hour, Now: fixedNow},
		ConsistencyCheck{Rule: "a differs from b", Predicate: func(r Record) bool {
			return r["a"] != r["b"] || r["a"] == ""
		}},
		oclChk,
	)
}

// TestValidateBatchMatchesRowApply is the core parity test: every check's
// batch verdicts must equal its per-record verdicts — passed, score and
// detail text — over randomized records.
func TestValidateBatchMatchesRowApply(t *testing.T) {
	v := parityValidator(t)
	recs := parityRecords(300)
	batch := &ColumnBatch{}
	batch.Columnarize(recs)
	rep := &BatchReport{}
	v.ValidateBatch(batch, rep)
	if rep.Rows() != len(recs) {
		t.Fatalf("rows = %d, want %d", rep.Rows(), len(recs))
	}
	checks := v.Checks()
	if len(rep.Results) != len(checks) {
		t.Fatalf("results = %d, want %d", len(rep.Results), len(checks))
	}
	for ci, c := range checks {
		col := &rep.Results[ci]
		if col.Check != c.Name() || col.Characteristic != c.Characteristic() {
			t.Fatalf("result %d labeled %s/%s, want %s/%s",
				ci, col.Check, col.Characteristic, c.Name(), c.Characteristic())
		}
		for r, rec := range recs {
			want := c.Apply(rec)
			if col.Passed[r] != want.Passed || col.Score[r] != want.Score {
				t.Fatalf("check %s row %d (rec %v): batch passed=%v score=%v, row passed=%v score=%v",
					c.Name(), r, rec, col.Passed[r], col.Score[r], want.Passed, want.Score)
			}
			if !detailsEqual(col.Details[r], want.Details) {
				t.Fatalf("check %s row %d (rec %v): batch details %q, row details %q",
					c.Name(), r, rec, col.Details[r], want.Details)
			}
		}
	}
	// Row roll-up must match too.
	legacy := &Report{}
	for r, rec := range recs {
		v.ValidateInto(rec, legacy)
		if rep.RowPassed(r) != legacy.Passed() {
			t.Fatalf("row %d: RowPassed=%v, Report.Passed=%v", r, rep.RowPassed(r), legacy.Passed())
		}
	}
}

func detailsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestValidateBatchReuse runs the same report through batches of different
// sizes and shapes, checking storage reuse leaks nothing between calls.
func TestValidateBatchReuse(t *testing.T) {
	v := parityValidator(t)
	rep := &BatchReport{}
	for _, n := range []int{50, 3, 120, 1} {
		recs := parityRecords(n)
		batch := &ColumnBatch{}
		batch.Columnarize(recs)
		v.ValidateBatch(batch, rep)
		for ci, c := range v.Checks() {
			col := &rep.Results[ci]
			for r, rec := range recs {
				want := c.Apply(rec)
				if col.Passed[r] != want.Passed || col.Score[r] != want.Score || !detailsEqual(col.Details[r], want.Details) {
					t.Fatalf("n=%d check %s row %d: batch (%v,%v,%q) vs row (%v,%v,%q)",
						n, c.Name(), r, col.Passed[r], col.Score[r], col.Details[r],
						want.Passed, want.Score, want.Details)
				}
			}
		}
	}
}

func TestRowViewReconstructsRecords(t *testing.T) {
	recs := parityRecords(64)
	batch := &ColumnBatch{}
	batch.Columnarize(recs)
	scratch := make(Record, 8)
	for i, rec := range recs {
		got := batch.RowView(i, scratch)
		if len(got) != len(rec) {
			t.Fatalf("row %d: view has %d fields, record has %d (%v vs %v)", i, len(got), len(rec), got, rec)
		}
		for k, v := range rec {
			if got[k] != v {
				t.Fatalf("row %d field %q: view %q, record %q", i, k, got[k], v)
			}
		}
	}
}

func TestSliceIntoViews(t *testing.T) {
	recs := parityRecords(100)
	batch := &ColumnBatch{}
	batch.Columnarize(recs)
	batch.WarmOCLValues()
	v := parityValidator(t)
	whole := &BatchReport{}
	v.ValidateBatch(batch, whole)
	view := &ColumnBatch{}
	rep := &BatchReport{}
	for lo := 0; lo < 100; lo += 33 {
		hi := lo + 33
		if hi > 100 {
			hi = 100
		}
		batch.SliceInto(view, lo, hi)
		if view.Rows() != hi-lo {
			t.Fatalf("view rows = %d, want %d", view.Rows(), hi-lo)
		}
		v.ValidateBatch(view, rep)
		for ci := range whole.Results {
			for r := 0; r < hi-lo; r++ {
				w := &whole.Results[ci]
				g := &rep.Results[ci]
				if g.Passed[r] != w.Passed[lo+r] || g.Score[r] != w.Score[lo+r] || !detailsEqual(g.Details[r], w.Details[lo+r]) {
					t.Fatalf("chunk [%d,%d) check %d row %d diverged from whole-batch run", lo, hi, ci, r)
				}
			}
		}
	}
}

func TestColumnBatchAbortRow(t *testing.T) {
	b := &ColumnBatch{}
	b.SetField("a", "1")
	b.EndRow()
	b.SetField("a", "2")
	b.SetField("b", "x")
	b.AbortRow()
	b.SetField("a", "3")
	b.EndRow()
	if b.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", b.Rows())
	}
	a := b.Col("a")
	if a.Raw[0] != "1" || a.Raw[1] != "3" {
		t.Fatalf("column a = %v, want [1 3]", a.Raw)
	}
	// Column b exists but is all-missing — equivalent to absent.
	if bCol := b.Col("b"); bCol != nil {
		for i, k := range bCol.Kinds {
			if k != CellMissing {
				t.Fatalf("b[%d] kind = %d, want missing", i, k)
			}
		}
	}
}

// TestColumnBatchResetReusesStorage pins Reset's promise: refilling a
// batch with a chunk of the same shape reuses every column's storage.
func TestColumnBatchResetReusesStorage(t *testing.T) {
	b := &ColumnBatch{}
	fill := func() {
		for i := 0; i < 256; i++ {
			b.SetField("a", "x")
			b.SetField("n", "7")
			if i%2 == 0 {
				b.SetField("opt", " ")
			}
			b.EndRow()
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(20, func() { b.Reset(); fill() }); allocs != 0 {
		t.Fatalf("Reset + refill of 256 rows allocated %.0f times, want 0", allocs)
	}
	if b.Rows() != 256 || b.Col("n").Ints[255] != 7 || b.Col("opt").Kinds[1] != CellMissing {
		t.Fatal("refilled batch does not hold the refilled cells")
	}
}

// TestSliceIntoViewResetKeepsSource pins the view rule: once a view is
// Reset, filling it must neither write into the batch it was sliced from
// nor share that batch's storage.
func TestSliceIntoViewResetKeepsSource(t *testing.T) {
	recs := parityRecords(40)
	src := &ColumnBatch{}
	src.Columnarize(recs)
	src.NullValues()
	want := &ColumnBatch{}
	want.Columnarize(recs)

	view := &ColumnBatch{}
	src.SliceInto(view, 0, 10)
	view.Reset()
	for _, f := range parityFields {
		view.SetField(f, "overwritten")
	}
	view.EndRow()
	nulls := view.NullValues()

	// A fill appends to every cell slice in step, so Raw, Trim and Kinds
	// show any write (Floats would not: NaN cells defeat DeepEqual).
	for _, c := range want.Columns() {
		got := src.Col(c.Name)
		if !reflect.DeepEqual(got.Raw, c.Raw) || !reflect.DeepEqual(got.Trim, c.Trim) ||
			!reflect.DeepEqual(got.Kinds, c.Kinds) {
			t.Fatalf("source column %q changed after filling a reset view", c.Name)
		}
	}
	srcNulls := src.NullValues()
	if len(srcNulls) != 40 || len(nulls) != 1 || &nulls[0] == &srcNulls[0] {
		t.Fatal("a reset view still shares the source's null column")
	}
}

// trialClassify is the classification oracle: strconv's own verdict,
// integer first.
func trialClassify(s string) (CellKind, int64, float64) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return CellInt, n, 0
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return CellFloat, 0, f
	}
	return CellString, 0, 0
}

// FuzzClassifyCell holds classifyNumber to the trial-parse oracle: same
// kind, same integer, same float bits, for any string.
func FuzzClassifyCell(f *testing.F) {
	for _, s := range []string{
		"Ada", "Tony", "id-123", "2025-05-30", "-0", "+Inf", "0x1p-2", "1_000",
		".5", "5.", "1e", "1e400", "nan", "-infinity", "+nan", "0x", "-", "",
		"1234567890123456789", "12345678901234567890",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		kind, n, x := classifyNumber(s)
		wantKind, wantN, wantX := trialClassify(s)
		if kind != wantKind || n != wantN || math.Float64bits(x) != math.Float64bits(wantX) {
			t.Fatalf("classifyNumber(%q) = (%d, %d, %v), trial parse gives (%d, %d, %v)",
				s, kind, n, x, wantKind, wantN, wantX)
		}
	})
}

// TestClassifyTextAllocatesNothing pins that text cells — names, id-like
// keys, dates — never pay for a failed strconv parse.
func TestClassifyTextAllocatesNothing(t *testing.T) {
	var c Column
	for _, s := range []string{"Ada", "Tony", "id-123", "2025-05-30"} {
		c.reset("f")
		c.appendCell(s)
		if c.Kinds[0] != CellString {
			t.Fatalf("%q classified as %d, want CellString", s, c.Kinds[0])
		}
		if allocs := testing.AllocsPerRun(100, func() { c.reset("f"); c.appendCell(s) }); allocs != 0 {
			t.Fatalf("classifying %q allocated %.0f times, want 0", s, allocs)
		}
	}
}

// TestBatchScheduleCostOrder pins the cost-ordered schedule: results stay
// at declared indices while evaluation order sorts by estimated cost.
func TestBatchScheduleCostOrder(t *testing.T) {
	v := parityValidator(t)
	rep := &BatchReport{}
	order := rep.orderFor(v.Checks())
	costs := make([]int, len(order))
	for i, idx := range order {
		costs[i] = checkCost(v.Checks()[idx])
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[i-1] {
			t.Fatalf("schedule %v has costs %v — not ascending", order, costs)
		}
	}
}

// TestOCLCheckApplyBatchSharedDetails checks the vectorized OCLCheck fail
// details are the shared slice (alloc-free) and byte-equal to the row path.
func TestOCLCheckApplyBatchSharedDetails(t *testing.T) {
	chk, err := NewOCLCheck(iso25012.Precision, "n >= 0")
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{{"n": "1"}, {"n": "-1"}, {"n": "-2"}, {"n": "x"}}
	batch := &ColumnBatch{}
	batch.Columnarize(recs)
	out := &ColumnResult{}
	out.reset(chk.Name(), chk.Characteristic(), batch.Rows())
	chk.ApplyBatch(batch, out)
	for r, rec := range recs {
		want := chk.Apply(rec)
		if out.Passed[r] != want.Passed || !detailsEqual(out.Details[r], want.Details) {
			t.Fatalf("row %d (%v): batch (%v,%q) vs row (%v,%q)",
				r, rec, out.Passed[r], out.Details[r], want.Passed, want.Details)
		}
	}
	if &out.Details[1][0] != &out.Details[2][0] {
		t.Fatal("plain failures do not share the precomputed detail slice")
	}
}
