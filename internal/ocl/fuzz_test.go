// Fuzzing for the OCL front end: whatever bytes arrive, the parser must
// return an error rather than panic, and the printer must be stable — a
// successfully parsed expression prints to a form that re-parses to the
// same printed form (print∘parse is idempotent on the printer's image).
// Every parseable input additionally compiles and runs differentially:
// the compiler is fuzzed for free, with the interpreter as the oracle,
// through Program.Eval and through the batch entry point OCLCheck uses.
package ocl

import (
	"reflect"
	"testing"
)

// fuzzSeeds covers every syntactic construct: literals, navigation,
// operations, arrow calls with iterators, enums, if/let, collections and
// the full operator precedence ladder. The checked-in corpus under
// testdata/fuzz/FuzzParse extends these with lexically nastier inputs.
var fuzzSeeds = []string{
	"1 + 2 * 3",
	"true and not false or 1 <> 2",
	"p implies q xor r",
	"self.name",
	"self.include->exists(i | i.addition = self)",
	"self.lower_bound.oclIsUndefined() or self.lower_bound <= self.upper_bound",
	"not self.text.oclIsUndefined() and self.text.size() > 0",
	"Sequence{1, 2, 3}->collect(x | x * x)->size()",
	"if a > 0 then 'pos' else 'neg' endif",
	"let x = 3 in x * x",
	"Color::red",
	"s.substring(1, 2).concat('x')",
	"Set{}->isEmpty()",
	"-3 < x and x < +3",
	"'it''s quoted'",
	"((((1))))",
	"x->forAll(y | y->select(z | z <> x)->notEmpty())",
	"",
	"   ",
	"1 +",
	"self..name",
	"Sequence{1,",
	"'unterminated",
	"@#$%",
	"\x00\xff",
}

func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src) // must never panic
		if err != nil {
			return
		}
		printed := e.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not re-parse:\nsrc:     %q\nprinted: %q\nerr:     %v", src, printed, err)
		}
		if again := e2.String(); again != printed {
			t.Fatalf("printer is not stable:\nsrc:    %q\nfirst:  %q\nsecond: %q", src, printed, again)
		}
		// Compilation must be total over parseable input ...
		prog, cerr := CompileWith(e, fuzzDiffOpts)
		if cerr != nil {
			t.Fatalf("Compile(%q): %v", printed, cerr)
		}
		// ... and compiled execution must agree with the interpreter, value
		// or error text, under a fixed scalar environment.
		iv, ierr := Eval(e, fuzzDiffEnv)
		cv, rerr := prog.Eval(fuzzDiffEnv)
		if (ierr != nil) != (rerr != nil) ||
			(ierr != nil && ierr.Error() != rerr.Error()) ||
			(ierr == nil && !reflect.DeepEqual(iv, cv)) {
			t.Fatalf("interpreter/compiler divergence on %q:\ninterpreted: v=%#v err=%v\ncompiled:    v=%#v err=%v",
				printed, iv, ierr, cv, rerr)
		}
		// EvalBoolBatch over one-row columns, each bound from fuzzDiffEnv
		// through its slot, must give EvalBool's verdict and error text.
		cols := make([]BoundColumn, 0, len(fuzzDiffOpts.Vars))
		for _, name := range fuzzDiffOpts.Vars {
			slot, ok := prog.Slot(name)
			if !ok {
				t.Fatalf("no slot for declared variable %q", name)
			}
			cols = append(cols, BoundColumn{Slot: slot, Values: []any{fuzzDiffEnv.Vars[name]}})
		}
		var out [1]BoolResult
		prog.EvalBoolBatch(nil, cols, out[:])
		ok, berr := EvalBool(printed, fuzzDiffEnv)
		if (berr != nil) != (out[0].Err != nil) ||
			(berr != nil && berr.Error() != out[0].Err.Error()) ||
			ok != out[0].OK {
			t.Fatalf("interpreter/batch divergence on %q:\ninterpreted: ok=%v err=%v\nbatch:       ok=%v err=%v",
				printed, ok, berr, out[0].OK, out[0].Err)
		}
	})
}

// fuzzDiffEnv supplies enough scalar bindings that fuzz inputs referencing
// common identifiers evaluate a real path instead of erroring immediately.
var fuzzDiffEnv = &Env{Vars: map[string]any{
	"p": true, "q": false, "r": true,
	"a": int64(1), "x": int64(3), "y": int64(-2),
	"s":  "abc",
	"xs": []any{int64(1), int64(2)},
}}

var fuzzDiffOpts = CompileOptions{Vars: []string{"a", "p", "q", "r", "s", "x", "xs", "y"}}
