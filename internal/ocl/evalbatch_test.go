// Differential coverage for the vectorized entry points: EvalBatch and
// EvalBoolBatch over a batch of rows must agree, row for row, with the
// per-record compiled path and the tree-walking interpreter — same values,
// same error texts.
package ocl

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// batchVars is the scalar variable set the batch differential tests bind.
var batchVars = []string{"a", "p", "q", "r", "s", "x", "xs", "y"}

// batchRow builds row i's variable values, cycling through booleans,
// signs, blanks and collection sizes so short-circuit and error paths all
// trigger somewhere in the batch.
func batchRow(i int) map[string]any {
	xs := make([]any, i%4)
	for j := range xs {
		xs[j] = int64(j + i)
	}
	s := fmt.Sprintf("s%d", i)
	if i%5 == 0 {
		s = ""
	}
	return map[string]any{
		"a":  int64(1),
		"p":  i%2 == 0,
		"q":  i%3 == 0,
		"r":  float64(i)*1.5 - 2,
		"s":  s,
		"x":  int64(i - 2),
		"xs": xs,
		"y":  int64(7 - 3*i),
	}
}

// cseBatchExprs repeat subexpressions and chain conjunctions, so a batch
// must evaluate every row afresh, in the interpreter's operand order.
var cseBatchExprs = []string{
	"s.size() > 1 and s.size() < 5",
	"s.size() + s.size() + s.size()",
	"xs->select(x | x > 0)->size() + xs->select(x | x > 0)->size()",
	"xs->forAll(x | s.size() >= 0 and x + s.size() > x)",
	"p and (q or p) and p",
	"(x * x + y * y) > 0 or (x * x + y * y) = 0",
	"let t = s.concat(s) in t.size() = s.size() * 2",
}

func batchDifferentialExprs(t *testing.T) []Expr {
	t.Helper()
	var out []Expr
	for _, src := range append(append([]string(nil), differentialExprs...), cseBatchExprs...) {
		expr, err := Parse(src)
		if err != nil {
			t.Fatalf("table entry %q does not parse: %v", src, err)
		}
		out = append(out, expr)
	}
	return out
}

// bindColumns builds one BoundColumn per declared variable from the rows.
func bindColumns(t *testing.T, prog *Program, rows []map[string]any) []BoundColumn {
	t.Helper()
	cols := make([]BoundColumn, 0, len(batchVars))
	for _, name := range batchVars {
		slot, ok := prog.Slot(name)
		if !ok {
			t.Fatalf("no slot for %q", name)
		}
		vals := make([]any, len(rows))
		for i, row := range rows {
			vals[i] = row[name]
		}
		cols = append(cols, BoundColumn{Slot: slot, Values: vals})
	}
	return cols
}

// TestEvalBatchDifferential pins EvalBatch against the interpreter and the
// per-record compiled path over the full handwritten expression table.
func TestEvalBatchDifferential(t *testing.T) {
	const rows = 9
	rowVals := make([]map[string]any, rows)
	for i := range rowVals {
		rowVals[i] = batchRow(i)
	}
	for _, expr := range batchDifferentialExprs(t) {
		prog := Compile(expr, batchVars...)
		out := make([]BatchResult, rows)
		prog.EvalBatch(nil, bindColumns(t, prog, rowVals), out)
		for i, got := range out {
			env := &Env{Vars: rowVals[i]}
			iv, ierr := Eval(expr, env)
			if (ierr != nil) != (got.Err != nil) {
				t.Fatalf("%q row %d:\ninterpreted: v=%#v err=%v\nbatch:       v=%#v err=%v",
					expr, i, iv, ierr, got.Val, got.Err)
			}
			if ierr != nil {
				if ierr.Error() != got.Err.Error() {
					t.Fatalf("%q row %d error text diverged\ninterpreted: %v\nbatch:       %v",
						expr, i, ierr, got.Err)
				}
				continue
			}
			if !reflect.DeepEqual(iv, got.Val) {
				t.Fatalf("%q row %d value diverged\ninterpreted: %#v\nbatch:       %#v",
					expr, i, iv, got.Val)
			}
		}
	}
}

// TestEvalBatchCorpus replays every parseable fuzz corpus entry through
// EvalBatch against the per-record path.
func TestEvalBatchCorpus(t *testing.T) {
	const rows = 4
	rowVals := make([]map[string]any, rows)
	for i := range rowVals {
		rowVals[i] = batchRow(i)
	}
	parsed := 0
	for _, src := range append(corpusInputs(t), fuzzSeeds...) {
		expr, err := Parse(src)
		if err != nil {
			continue
		}
		parsed++
		prog := Compile(expr, batchVars...)
		out := make([]BatchResult, rows)
		prog.EvalBatch(nil, bindColumns(t, prog, rowVals), out)
		for i, got := range out {
			rv, rerr := prog.Eval(&Env{Vars: rowVals[i]})
			if (rerr != nil) != (got.Err != nil) ||
				(rerr != nil && rerr.Error() != got.Err.Error()) ||
				(rerr == nil && !reflect.DeepEqual(rv, got.Val)) {
				t.Fatalf("%q row %d:\nper-record: v=%#v err=%v\nbatch:      v=%#v err=%v",
					src, i, rv, rerr, got.Val, got.Err)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no corpus entry parsed — harness is vacuous")
	}
}

// TestEvalBatchModelSelves sweeps a self column over model objects (and
// null), exercising navigation, allInstances (and its extent cache) and
// type operations on the batch path.
func TestEvalBatchModelSelves(t *testing.T) {
	_, m := libFixture(t)
	a1, b1, b2 := seedLibrary(t, m)
	selves := []any{a1, b1, b2, nil, b1}
	exprs := []string{
		"self.oclIsKindOf(Book) implies (self.pages > 0 and self.title.size() > 0)",
		"Book.allInstances()->size() >= 0",
		"self.oclIsTypeOf(Book)",
		"self.title.size() + self.title.size()",
	}
	env := &Env{Model: m}
	for _, src := range exprs {
		expr := MustParse(src)
		prog := Compile(expr, "self")
		slot, _ := prog.Slot("self")
		out := make([]BatchResult, len(selves))
		prog.EvalBatch(env, []BoundColumn{{Slot: slot, Values: selves}}, out)
		for i, got := range out {
			iv, ierr := Eval(expr, &Env{Model: m, Vars: map[string]any{"self": selves[i]}})
			if (ierr != nil) != (got.Err != nil) ||
				(ierr != nil && ierr.Error() != got.Err.Error()) ||
				(ierr == nil && !reflect.DeepEqual(iv, got.Val)) {
				t.Fatalf("%q row %d:\ninterpreted: v=%#v err=%v\nbatch:       v=%#v err=%v",
					src, i, iv, ierr, got.Val, got.Err)
			}
		}
	}
}

// TestEvalBoolBatchMatchesEvalBool pins the Boolean coercion path row by
// row, including coercion failures (non-Boolean results).
func TestEvalBoolBatchMatchesEvalBool(t *testing.T) {
	const rows = 6
	rowVals := make([]map[string]any, rows)
	for i := range rowVals {
		rowVals[i] = batchRow(i)
	}
	exprs := []string{
		"p and q",
		"x > 0 or y > 0",
		"s.size()", // Integer → coercion error
		"s",        // String or null → error or false
		"xs->notEmpty() implies xs->first() >= 0",
	}
	for _, src := range exprs {
		expr := MustParse(src)
		prog := Compile(expr, batchVars...)
		out := make([]BoolResult, rows)
		prog.EvalBoolBatch(nil, bindColumns(t, prog, rowVals), out)
		for i, got := range out {
			fr := prog.NewFrame(&Env{})
			for _, name := range batchVars {
				fr.SetVar(name, rowVals[i][name])
			}
			ok, err := fr.EvalBool()
			fr.Release()
			if (err != nil) != (got.Err != nil) ||
				(err != nil && err.Error() != got.Err.Error()) ||
				ok != got.OK {
				t.Fatalf("%q row %d:\nper-record: ok=%v err=%v\nbatch:      ok=%v err=%v",
					src, i, ok, err, got.OK, got.Err)
			}
		}
	}
}

// TestEvalBatchQuick is the randomized version: arbitrary scalar rows,
// full agreement between batch and interpreter on the expression table.
func TestEvalBatchQuick(t *testing.T) {
	exprs := batchDifferentialExprs(t)
	progs := make([]*Program, len(exprs))
	for i, expr := range exprs {
		p := Compile(expr, batchVars...)
		progs[i] = p
	}
	property := func(p1, q1 bool, x, y int8, r float64, s string, raw []int8) bool {
		xs := make([]any, len(raw))
		for i, v := range raw {
			xs[i] = int64(v)
		}
		rows := []map[string]any{
			{"a": int64(1), "p": p1, "q": q1, "r": r, "s": s, "x": int64(x), "xs": xs, "y": int64(y)},
			{"a": int64(1), "p": !p1, "q": q1, "r": -r, "s": s + "t", "x": int64(y), "xs": xs, "y": int64(x)},
		}
		for ei, expr := range exprs {
			prog := progs[ei]
			out := make([]BatchResult, len(rows))
			prog.EvalBatch(nil, bindColumns(t, prog, rows), out)
			for i, got := range out {
				iv, ierr := Eval(expr, &Env{Vars: rows[i]})
				if (ierr != nil) != (got.Err != nil) ||
					(ierr != nil && ierr.Error() != got.Err.Error()) ||
					(ierr == nil && !reflect.DeepEqual(iv, got.Val)) {
					t.Logf("diverged on %q row %d:\ninterpreted: v=%#v err=%v\nbatch:       v=%#v err=%v",
						expr, i, iv, ierr, got.Val, got.Err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatalf("batch differential property failed: %v", err)
	}
}
