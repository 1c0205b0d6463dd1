package dqruntime

import (
	"fmt"

	"github.com/modeldriven/dqwebre/internal/iso25012"
)

// Vectorized validation: a Validator runs each check over a whole
// ColumnBatch at once, writing per-row verdicts into reusable column
// results. Checks that implement BatchCheck evaluate columns directly;
// everything else transparently falls back to the row path through a
// pooled RowView adapter, so a validator mixing vectorized and legacy
// checks still produces one uniform BatchReport. Verdict-for-verdict the
// output equals running Apply per row — the parity tests hold every stock
// check to that, details included.

// BatchCheck is implemented by checks that can evaluate a whole columnar
// batch at once. ApplyBatch must produce, for every row, exactly the
// verdict Apply would produce for that row's record: out arrives
// initialized to all-pass (Passed true, Score 1, Details nil), so
// implementations only write failing (or partially scored) rows.
// Implementations may share one Details slice across rows and calls;
// consumers treat details as immutable.
type BatchCheck interface {
	Check
	ApplyBatch(b *ColumnBatch, out *ColumnResult)
}

// ColumnResult holds one check's verdicts for every row of a batch, in
// row order.
type ColumnResult struct {
	// Check names the producing check; Characteristic is what it measures.
	Check          string
	Characteristic iso25012.Characteristic
	// Passed, Score and Details have one entry per row, mirroring
	// CheckResult's fields. Details entries may be shared across rows.
	Passed  []bool
	Score   []float64
	Details [][]string
}

// reset sizes the result for rows and initializes every row to a full
// pass, reusing storage.
func (cr *ColumnResult) reset(check string, ch iso25012.Characteristic, rows int) {
	cr.Check = check
	cr.Characteristic = ch
	if cap(cr.Passed) < rows {
		cr.Passed = make([]bool, rows)
		cr.Score = make([]float64, rows)
		cr.Details = make([][]string, rows)
	}
	cr.Passed = cr.Passed[:rows]
	cr.Score = cr.Score[:rows]
	cr.Details = cr.Details[:rows]
	for i := range cr.Passed {
		cr.Passed[i] = true
		cr.Score[i] = 1
	}
	clear(cr.Details)
}

// Fail marks one row failed with the given score and details. Details may
// be shared across rows; consumers must not mutate them.
func (cr *ColumnResult) Fail(row int, score float64, details []string) {
	cr.Passed[row] = false
	cr.Score[row] = score
	cr.Details[row] = details
}

// BatchReport aggregates one batch's check results: one ColumnResult per
// check, in the validator's check order. Reuse one report per worker; all
// storage recycles across batches.
type BatchReport struct {
	// Validator is the producing validator's name.
	Validator string
	// Results holds one column of verdicts per check, in check order.
	Results []ColumnResult
	rows    int
	// scratch is the pooled row-view map for checks without a vectorized
	// path.
	scratch Record
}

// Rows returns the number of rows the last ValidateBatch covered.
func (rep *BatchReport) Rows() int { return rep.rows }

// RowPassed reports whether every check passed the given row.
func (rep *BatchReport) RowPassed(row int) bool {
	for i := range rep.Results {
		if !rep.Results[i].Passed[row] {
			return false
		}
	}
	return true
}

// ValidateBatch runs every check against the batch, writing one
// ColumnResult per check into rep (reusing its storage). Checks without a
// vectorized path run row by row through a pooled RowView adapter.
func (v *Validator) ValidateBatch(b *ColumnBatch, rep *BatchReport) {
	rows := b.Rows()
	rep.Validator = v.name
	rep.rows = rows
	if cap(rep.Results) < len(v.checks) {
		results := make([]ColumnResult, len(v.checks))
		copy(results, rep.Results)
		rep.Results = results
	}
	rep.Results = rep.Results[:len(v.checks)]
	for i, c := range v.checks {
		out := &rep.Results[i]
		out.reset(c.Name(), c.Characteristic(), rows)
		if bc, ok := c.(BatchCheck); ok {
			bc.ApplyBatch(b, out)
			continue
		}
		if rep.scratch == nil {
			rep.scratch = make(Record, 8)
		}
		for r := 0; r < rows; r++ {
			res := c.Apply(b.RowView(r, rep.scratch))
			out.Passed[r] = res.Passed
			out.Score[r] = res.Score
			out.Details[r] = res.Details
		}
	}
}

// filled reports whether a cell counts as filled for completeness: present
// and not blank after trimming, exactly strings.TrimSpace(r[f]) != "".
func filledCell(k CellKind) bool { return k != CellMissing && k != CellBlank }

// ApplyBatch scores each row's fraction of filled required fields.
func (c CompletenessCheck) ApplyBatch(b *ColumnBatch, out *ColumnResult) {
	nreq := len(c.Required)
	if nreq == 0 {
		return
	}
	rows := b.Rows()
	for _, f := range c.Required {
		detail := "missing " + f
		col := b.Col(f)
		if col == nil {
			for r := 0; r < rows; r++ {
				out.Details[r] = append(out.Details[r], detail)
			}
			continue
		}
		for r, k := range col.Kinds {
			if !filledCell(k) {
				out.Details[r] = append(out.Details[r], detail)
			}
		}
	}
	for r := 0; r < rows; r++ {
		if missing := len(out.Details[r]); missing > 0 {
			out.Passed[r] = false
			out.Score[r] = float64(nreq-missing) / float64(nreq)
		}
	}
}

// ApplyBatch checks the integer bounds against the pre-parsed column.
func (c PrecisionCheck) ApplyBatch(b *ColumnBatch, out *ColumnResult) {
	rows := b.Rows()
	var blankDetail []string
	blank := func(r int) {
		if !c.Optional {
			if blankDetail == nil {
				blankDetail = []string{c.Field + " is blank"}
			}
			out.Fail(r, 0, blankDetail)
		}
	}
	col := b.Col(c.Field)
	if col == nil {
		for r := 0; r < rows; r++ {
			blank(r)
		}
		return
	}
	var lastBadInt int64
	var lastBadIntDetail []string
	var lastBadStr string
	var lastBadStrDetail []string
	for r, k := range col.Kinds {
		switch k {
		case CellMissing, CellBlank:
			blank(r)
		case CellInt:
			n := col.Int(r)
			if n < c.Lower || n > c.Upper {
				if lastBadIntDetail == nil || lastBadInt != n {
					lastBadInt = n
					lastBadIntDetail = []string{fmt.Sprintf("%s=%d outside [%d,%d]", c.Field, n, c.Lower, c.Upper)}
				}
				out.Fail(r, 0, lastBadIntDetail)
			}
		default:
			s := col.Trim(r)
			if lastBadStrDetail == nil || lastBadStr != s {
				lastBadStr = s
				lastBadStrDetail = []string{fmt.Sprintf("%s=%q is not an integer", c.Field, s)}
			}
			out.Fail(r, 0, lastBadStrDetail)
		}
	}
}

// ApplyBatch matches the pattern over the column, memoizing consecutive
// equal values so constant-ish columns run the regex a handful of times
// per batch instead of per row.
func (c AccuracyCheck) ApplyBatch(b *ColumnBatch, out *ColumnResult) {
	rows := b.Rows()
	var blankDetail []string
	blank := func(r int) {
		if !c.Optional {
			if blankDetail == nil {
				blankDetail = []string{c.Field + " is blank"}
			}
			out.Fail(r, 0, blankDetail)
		}
	}
	col := b.Col(c.Field)
	if col == nil {
		for r := 0; r < rows; r++ {
			blank(r)
		}
		return
	}
	var lastVal string
	var lastOK, haveLast bool
	var lastDetail []string
	for r, k := range col.Kinds {
		if !filledCell(k) {
			blank(r)
			continue
		}
		s := col.Trim(r)
		if !haveLast || s != lastVal {
			lastVal, haveLast = s, true
			lastOK = c.Pattern != nil && c.Pattern.MatchString(s)
			lastDetail = nil
		}
		if !lastOK {
			if lastDetail == nil {
				lastDetail = []string{fmt.Sprintf("%s=%q does not match the expected format", c.Field, s)}
			}
			out.Fail(r, 0, lastDetail)
		}
	}
}

// ApplyBatch judges each filled cell as Apply does, reading the clock per
// row like the row path.
func (c CurrentnessCheck) ApplyBatch(b *ColumnBatch, out *ColumnResult) {
	rows := b.Rows()
	var blankDetail []string
	blank := func(r int) {
		if !c.Optional {
			if blankDetail == nil {
				blankDetail = []string{c.Field + " is blank"}
			}
			out.Fail(r, 0, blankDetail)
		}
	}
	col := b.Col(c.Field)
	if col == nil {
		for r := 0; r < rows; r++ {
			blank(r)
		}
		return
	}
	for r, k := range col.Kinds {
		if !filledCell(k) {
			blank(r)
		} else if details := c.judge(col.Trim(r)); details != nil {
			out.Fail(r, 0, details)
		}
	}
}
