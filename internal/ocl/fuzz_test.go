// Fuzzing for the OCL front end: whatever bytes arrive, the parser must
// return an error rather than panic, and the printer must be stable — a
// successfully parsed expression prints to a form that re-parses to the
// same printed form (print∘parse is idempotent on the printer's image).
// Every parseable input additionally compiles and runs differentially:
// the compiler is fuzzed for free, with the interpreter as the oracle,
// through Program.Eval and through the batch entry point OCLCheck uses,
// one Program under two environments.
package ocl

import (
	"reflect"
	"testing"

	"github.com/modeldriven/dqwebre/internal/metamodel"
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
	// Names that resolve against the model env's metamodel at run time.
	"Genre::Fiction",
	"Book.allInstances()->size()",
	"self.oclIsKindOf(NoSuch)",
	"1 / 0",
	"- 'a'",
	// Constant subtrees, short-circuited errors and constant lets.
	"10 / 4",
	"false and (1 / 0) > 0",
	"true or (1 / 0) > 0",
	"false implies (1 / 0) > 0",
	"not (1 > 2)",
	"if 1 < 2 then 'x' else 'y' endif",
	"'ab'.concat('cd')",
	"'Hello'.toUpper()",
	"'hello'.substring(2, 4)",
	"(3).max(9)",
	"null.oclIsUndefined()",
	"1 = 1.0",
	"'a' < 'b'",
	"let k = 2 in k * k + 1",
	"x + 1",
	"Set{1, 2}",
	"Sequence{1}->size()",
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
		// Compilation is total over parseable input, and compiled
		// execution must agree with the interpreter, value or error text,
		// under every environment.
		prog := Compile(e, fuzzVars...)
		for _, env := range fuzzEnvs {
			iv, ierr := Eval(e, env)
			cv, rerr := prog.Eval(env)
			if (ierr != nil) != (rerr != nil) ||
				(ierr != nil && ierr.Error() != rerr.Error()) ||
				(ierr == nil && !reflect.DeepEqual(iv, cv)) {
				t.Fatalf("interpreter/compiler divergence on %q (model %v):\ninterpreted: v=%#v err=%v\ncompiled:    v=%#v err=%v",
					printed, env.Model != nil, iv, ierr, cv, rerr)
			}
			// EvalBoolBatch over one-row columns, each bound from env
			// through its slot, must give EvalBool's verdict and error text.
			cols := make([]BoundColumn, 0, len(fuzzVars))
			for _, name := range fuzzVars {
				slot, ok := prog.Slot(name)
				if !ok {
					t.Fatalf("no slot for declared variable %q", name)
				}
				cols = append(cols, BoundColumn{Slot: slot, Values: []any{env.Vars[name]}})
			}
			var out [1]BoolResult
			prog.EvalBoolBatch(env, cols, out[:])
			ok, berr := EvalBool(printed, env)
			if (berr != nil) != (out[0].Err != nil) ||
				(berr != nil && berr.Error() != out[0].Err.Error()) ||
				ok != out[0].OK {
				t.Fatalf("interpreter/batch divergence on %q (model %v):\ninterpreted: ok=%v err=%v\nbatch:       ok=%v err=%v",
					printed, env.Model != nil, ok, berr, out[0].OK, out[0].Err)
			}
		}
	})
}

// fuzzVars are the variables both environments bind, enough that fuzz
// inputs referencing common identifiers evaluate a real path instead of
// erroring immediately.
var fuzzVars = []string{"a", "p", "q", "r", "s", "x", "xs", "y"}

func fuzzScalars() map[string]any {
	return map[string]any{
		"p": true, "q": false, "r": true,
		"a": int64(1), "x": int64(3), "y": int64(-2),
		"s":  "abc",
		"xs": []any{int64(1), int64(2)},
	}
}

// fuzzEnvs holds the scalars alone, and beside a two-Book model whose
// metamodel resolves Book, Genre::Fiction and Book.allInstances() at run
// time, with self bound to the first Book.
var fuzzEnvs = []*Env{{Vars: fuzzScalars()}, fuzzModelEnv()}

func fuzzModelEnv() *Env {
	pkg := metamodel.NewPackage("Shelf")
	genre := pkg.AddEnumeration("Genre", "Fiction", "Science")
	pkg.AddClass("Book").AddAttr("genre", genre)
	m := metamodel.NewModel("shelf", pkg)
	vars := fuzzScalars()
	for _, lit := range []string{"Fiction", "Science"} {
		b := m.MustCreate("Book")
		b.MustSet("genre", metamodel.EnumLit{Enum: genre, Literal: lit})
		if vars["self"] == nil {
			vars["self"] = b
		}
	}
	return &Env{Model: m, Vars: vars}
}
