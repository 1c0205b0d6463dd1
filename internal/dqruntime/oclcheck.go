package dqruntime

import (
	"fmt"
	"strings"
	"sync"

	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/ocl"
)

// OCLCheck evaluates an OCL boolean expression over a record, with the
// record's fields bound as OCL variables. It is the generic realization of
// DQSR constraint components that carry an explicit OCL predicate (an
// "ocl=" attribute) instead of one of the fixed-shape payloads the other
// checks parse. The expression is compiled once, at construction, through
// the shared program cache; Apply binds field values into a pooled frame,
// so steady-state evaluation performs no per-record parsing or compilation.
// ApplyBatch is the vectorized sibling: one reused frame sweeps a whole
// column batch through Program.EvalBoolBatch, with field columns boxed
// once per batch.
type OCLCheck struct {
	characteristic iso25012.Characteristic
	prog           *ocl.Program
	// fields are the expression's free variables, bound from the record on
	// every Apply. A field absent from the record binds as OCL null, which
	// the expression can test with oclIsUndefined().
	fields []string
	// slots are the frame slots of fields, in field order.
	slots []int
	env   *ocl.Env
	// failDetail is the shared "violates: <src>" details slice — the
	// verdict for every plain (error-free) failure, allocated once.
	failDetail []string
	// scratch pools the per-batch binding and verdict buffers, since one
	// check instance runs on many workers concurrently.
	scratch sync.Pool
}

// oclBatchScratch is one worker's reusable ApplyBatch state.
type oclBatchScratch struct {
	cols     []ocl.BoundColumn
	verdicts []ocl.BoolResult
}

// NewOCLCheck compiles expr and derives the record fields it reads from the
// expression's free variables. Every field is bound on every evaluation
// (absent ones as null), so the program compiles under AssumeBound and
// benefits from cost-ordered conjunctions.
func NewOCLCheck(ch iso25012.Characteristic, expr string) (*OCLCheck, error) {
	parsed, err := ocl.Parse(expr)
	if err != nil {
		return nil, fmt.Errorf("dqruntime: OCL check %q: %w", expr, err)
	}
	fields := ocl.FreeVars(parsed)
	prog, err := ocl.CompileString(expr, ocl.CompileOptions{Vars: fields, AssumeBound: true})
	if err != nil {
		return nil, fmt.Errorf("dqruntime: OCL check %q: %w", expr, err)
	}
	slots := make([]int, len(fields))
	for i, f := range fields {
		slots[i], _ = prog.Slot(f)
	}
	return &OCLCheck{
		characteristic: ch,
		prog:           prog,
		fields:         fields,
		slots:          slots,
		env:            &ocl.Env{},
		failDetail:     []string{"violates: " + prog.Source()},
	}, nil
}

// Name returns "check_ocl".
func (*OCLCheck) Name() string { return "check_ocl" }

// Characteristic returns the characteristic the check was built for.
func (c *OCLCheck) Characteristic() iso25012.Characteristic { return c.characteristic }

// Expression returns the compiled OCL source.
func (c *OCLCheck) Expression() string { return c.prog.Source() }

// Fields returns the record fields the expression reads, sorted.
func (c *OCLCheck) Fields() []string { return append([]string(nil), c.fields...) }

// Apply binds the record's fields and evaluates the predicate. A non-Boolean
// result or an evaluation error fails the check with the diagnostic in
// Details — a constraint that cannot be evaluated has not been satisfied.
func (c *OCLCheck) Apply(r Record) CheckResult {
	res := CheckResult{Check: c.Name(), Characteristic: c.characteristic}
	fr := c.prog.NewFrame(c.env)
	defer fr.Release()
	for i, f := range c.fields {
		fr.SetSlot(c.slots[i], recordOCLValue(r[f]))
	}
	ok, err := fr.EvalBool()
	if err != nil {
		res.Details = []string{fmt.Sprintf("%s: %v", c.prog.Source(), err)}
		return res
	}
	if !ok {
		res.Details = c.failDetail
		return res
	}
	res.Passed, res.Score = true, 1
	return res
}

// ApplyBatch evaluates the predicate over every row with one reused frame.
// Field columns bind their memoized boxed OCL values; fields no column
// carries bind a shared all-null column, exactly like the row path's
// absent-field null.
func (c *OCLCheck) ApplyBatch(b *ColumnBatch, out *ColumnResult) {
	rows := b.Rows()
	if rows == 0 {
		return
	}
	sc, _ := c.scratch.Get().(*oclBatchScratch)
	if sc == nil {
		sc = &oclBatchScratch{}
	}
	defer c.scratch.Put(sc)
	sc.cols = sc.cols[:0]
	for i, f := range c.fields {
		vals := b.NullValues()
		if col := b.Col(f); col != nil {
			vals = col.OCLValues()
		}
		sc.cols = append(sc.cols, ocl.BoundColumn{Slot: c.slots[i], Values: vals})
	}
	if cap(sc.verdicts) < rows {
		sc.verdicts = make([]ocl.BoolResult, rows)
	}
	verdicts := sc.verdicts[:rows]
	c.prog.EvalBoolBatch(c.env, sc.cols, verdicts)
	var lastErr error
	var lastErrDetail []string
	for r := range verdicts {
		v := &verdicts[r]
		if v.Err != nil {
			if lastErrDetail == nil || v.Err != lastErr {
				lastErr = v.Err
				lastErrDetail = []string{fmt.Sprintf("%s: %v", c.prog.Source(), v.Err)}
			}
			out.Fail(r, 0, lastErrDetail)
			continue
		}
		if !v.OK {
			out.Fail(r, 0, c.failDetail)
		}
	}
}

// recordOCLValue lifts a raw form value into the OCL domain: blank → null,
// integers and reals → numbers, true/false → Boolean, anything else → the
// trimmed string — the same classification as Column.appendCell.
func recordOCLValue(raw string) any {
	s := strings.TrimSpace(raw)
	switch {
	case s == "":
		return nil
	case s == "true":
		return true
	case s == "false":
		return false
	}
	switch kind, n, f := classifyNumber(s); kind {
	case CellInt:
		return n
	case CellFloat:
		return f
	}
	return s
}
