// Differential harness: the tree-walking interpreter is the oracle and
// compiled Programs must agree with it — same value or same error — on
// every checked-in fuzz corpus entry, a table of handwritten expressions
// and randomized testing/quick inputs, each replayed under several
// environments (no bindings, scalar bindings, a full model).
package ocl

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// diffEnv names an environment; the compiler sees the same world through
// the variables the environment binds.
type diffEnv struct {
	name string
	env  *Env
}

func (d diffEnv) vars() []string {
	vars := make([]string, 0, len(d.env.Vars))
	for k := range d.env.Vars {
		vars = append(vars, k)
	}
	sort.Strings(vars)
	return vars
}

func differentialEnvs(t testing.TB) []diffEnv {
	_, m := libFixture(t)
	_, b1, _ := seedLibrary(t, m)
	return []diffEnv{
		{name: "empty", env: &Env{}},
		{name: "scalars", env: &Env{Vars: map[string]any{
			"p":  true,
			"q":  false,
			"x":  int64(3),
			"y":  int64(-7),
			"r":  2.5,
			"s":  "abc",
			"xs": []any{int64(1), int64(2), int64(3)},
			"a":  int64(1),
		}}},
		{name: "model", env: &Env{
			Model: m,
			Vars:  map[string]any{"self": b1},
		}},
	}
}

// assertAgreement runs one expression through both evaluation paths under
// one environment and fails on any observable difference.
func assertAgreement(t *testing.T, expr Expr, d diffEnv) {
	t.Helper()
	iv, ierr := Eval(expr, d.env)
	prog := Compile(expr, d.vars()...)
	cv, rerr := prog.Eval(d.env)
	if (ierr != nil) != (rerr != nil) {
		t.Fatalf("env %s: %q\ninterpreted: v=%#v err=%v\ncompiled:    v=%#v err=%v",
			d.name, expr, iv, ierr, cv, rerr)
	}
	if ierr != nil {
		if ierr.Error() != rerr.Error() {
			t.Fatalf("env %s: %q error text diverged\ninterpreted: %v\ncompiled:    %v",
				d.name, expr, ierr, rerr)
		}
		return
	}
	if !reflect.DeepEqual(iv, cv) {
		t.Fatalf("env %s: %q value diverged\ninterpreted: %#v\ncompiled:    %#v",
			d.name, expr, iv, cv)
	}
}

// corpusInputs loads every FuzzParse corpus entry (go fuzz v1 format).
func corpusInputs(t testing.TB) []string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzParse")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	var out []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading corpus entry %s: %v", e.Name(), err)
		}
		lines := strings.Split(string(data), "\n")
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("corpus entry %s: unexpected format", e.Name())
		}
		payload := strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")")
		src, err := strconv.Unquote(payload)
		if err != nil {
			t.Fatalf("corpus entry %s: unquote: %v", e.Name(), err)
		}
		out = append(out, src)
	}
	if len(out) == 0 {
		t.Fatal("fuzz corpus is empty — differential replay would prove nothing")
	}
	return out
}

// TestDifferentialCorpus replays the full checked-in fuzz corpus plus the
// fuzz seeds through interpreter and compiler under every environment.
func TestDifferentialCorpus(t *testing.T) {
	envs := differentialEnvs(t)
	inputs := append(corpusInputs(t), fuzzSeeds...)
	parsed := 0
	for _, src := range inputs {
		expr, err := Parse(src)
		if err != nil {
			continue // unparseable corpus entries exercise the lexer only
		}
		parsed++
		for _, d := range envs {
			assertAgreement(t, expr, d)
		}
	}
	if parsed == 0 {
		t.Fatal("no corpus entry parsed — harness is vacuous")
	}
	t.Logf("replayed %d parseable inputs across %d environments", parsed, len(envs))
}

// differentialExprs are handwritten expressions targeting every compiler
// code path: signed literals, short-circuit specialization, slots and
// shadowing, implicit iterators, type resolution, frame reuse.
var differentialExprs = []string{
	// constant subtrees and errors a short circuit skips
	"1 + 2 * 3",
	"false and (1 / 0) > 0",
	"true and (1 / 0) > 0",
	"true or (1 / 0) > 0",
	"false implies (1 / 0) > 0",
	"1 / 0",
	"5 mod 0",
	"7 div 0",
	"if 1 < 2 then 'yes' else 'no' endif",
	"if 1 then 2 else 3 endif",
	"'ab'.concat('cd').size()",
	"'hello'.substring(2, 4)",
	"'hello'.substring(0, 99)",
	"(-5).abs()",
	"(3).max(9) + (3).min(9)",
	"null.oclIsUndefined()",
	"let k = 2 in k * k",
	"let k = 1 / 0 in 5",
	// variables, shadowing, let over iterators
	"x + y",
	"p and q",
	"p or q",
	"p xor q",
	"p implies q",
	"not p",
	"let x = 100 in x + 1",
	"xs->select(x | x > 1)->size()",
	"xs->forAll(x | xs->exists(x | x = 1))",
	"xs->collect(v | v * v)->sum()",
	"let v = 10 in xs->collect(x | x + v)",
	"xs->sortedBy(x | -x)",
	"xs->isUnique(x | x mod 2)",
	"xs->any(x | x > 2)",
	// implicit iterators and the self alias
	"Sequence{1, 2, 3}->select(s | s > 1)",
	"Sequence{1, 2, 3}->collect(self)",
	"Sequence{Sequence{1}, Sequence{2}}->collect(self->size())",
	"xs->exists(self = 2)",
	// collections
	"Set{1, 2, 2, 3}->size()",
	"Set{}->isEmpty()",
	"Sequence{3, 1, 2}->sortedBy(x | x)->first()",
	"Bag{1, 1}->asSet()",
	"xs->including(9)->excluding(1)",
	"xs->union(Sequence{4})->reverse()",
	"xs->at(2) + xs->indexOf(3)",
	"xs->count(2) = 1",
	"xs->includesAll(Sequence{1, 3})",
	"Sequence{1, 'a'}->max()",
	"xs->avg()",
	"Sequence{}->first().oclIsUndefined()",
	// errors that must match exactly
	"unknownIdent",
	"unknownIdent + 1",
	"'a' + 1",
	"xs->forAll(x | x)",
	"s.bogusOp()",
	"xs->bogusCollOp()",
	"Genre::Missing",
	"Missing::Literal",
	"1.5 mod 2.5",
	// model-dependent paths (resolve to errors in scalar/empty envs —
	// those error texts must also match)
	"self.title.size() > 0",
	"self.pages > 100 and self.pages < 10000",
	"Book.allInstances()->size()",
	"Book.allInstances()->forAll(b | b.pages > 0)",
	"Novel.allInstances()->forAll(n | n.oclIsKindOf(Book))",
	"self.oclIsTypeOf(Book)",
	"self.oclIsKindOf(NoSuchType)",
	"self.oclAsType(Novel).oclIsUndefined()",
	"self.genre = Genre::Fiction",
	"self.authors->collect(a | a.name)->notEmpty()",
	"self.authors.name->size()",
}

func TestDifferentialHandwritten(t *testing.T) {
	envs := differentialEnvs(t)
	for _, src := range differentialExprs {
		expr, err := Parse(src)
		if err != nil {
			t.Fatalf("table entry %q does not parse: %v", src, err)
		}
		for _, d := range envs {
			assertAgreement(t, expr, d)
		}
	}
}

// TestDifferentialQuick drives randomized scalar environments through a
// fixed expression set, quick-check style: for arbitrary variable values
// the two evaluation paths must agree.
func TestDifferentialQuick(t *testing.T) {
	exprs := make([]Expr, 0, len(differentialExprs))
	for _, src := range differentialExprs {
		exprs = append(exprs, MustParse(src))
	}
	property := func(p, q bool, x, y int8, r float64, s string, raw []int8) bool {
		xs := make([]any, len(raw))
		for i, v := range raw {
			xs[i] = int64(v)
		}
		d := diffEnv{name: "quick", env: &Env{Vars: map[string]any{
			"p": p, "q": q,
			"x": int64(x), "y": int64(y),
			"r": r, "s": s, "xs": xs,
			"a": int64(1),
		}}}
		for _, expr := range exprs {
			iv, ierr := Eval(expr, d.env)
			prog := Compile(expr, d.vars()...)
			cv, rerr := prog.Eval(d.env)
			if (ierr != nil) != (rerr != nil) ||
				(ierr != nil && ierr.Error() != rerr.Error()) ||
				(ierr == nil && !reflect.DeepEqual(iv, cv)) {
				t.Logf("diverged on %q:\ninterpreted: v=%#v err=%v\ncompiled:    v=%#v err=%v",
					expr, iv, ierr, cv, rerr)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatalf("differential property failed: %v", err)
	}
}

// TestDifferentialProgramReuse checks that one Program evaluated many times
// over a shared Env (the production shape: compile once, evaluate per
// object on several goroutines' worth of frames) keeps agreeing with fresh
// interpreter runs — i.e. frame pooling leaks no state between calls.
func TestDifferentialProgramReuse(t *testing.T) {
	_, m := libFixture(t)
	a1, b1, b2 := seedLibrary(t, m)
	expr := MustParse("self.oclIsKindOf(Book) implies (self.pages > 0 and self.title.size() > 0)")
	prog := Compile(expr, "self")
	shared := &Env{Model: m}
	selves := []any{a1, b1, b2, nil}
	for round := 0; round < 3; round++ {
		for _, self := range selves {
			iv, ierr := Eval(expr, &Env{Model: m, Vars: map[string]any{"self": self}})
			cv, rerr := prog.EvalSelf(self, shared)
			if (ierr != nil) != (rerr != nil) ||
				(ierr != nil && ierr.Error() != rerr.Error()) ||
				(ierr == nil && !reflect.DeepEqual(iv, cv)) {
				t.Fatalf("round %d self=%v:\ninterpreted: v=%#v err=%v\ncompiled:    v=%#v err=%v",
					round, self, iv, ierr, cv, rerr)
			}
		}
	}
}

// TestDifferentialErrorTextsStable pins a few error strings both paths must
// produce verbatim; consumer diagnostics embed them.
func TestDifferentialErrorTextsStable(t *testing.T) {
	cases := map[string]string{
		"1 / 0":        "ocl: division by zero",
		"unknownIdent": `ocl: unknown variable or type "unknownIdent"`,
		"1 and true":   `ocl: "and" needs Boolean operands, got Integer`,
	}
	for src, want := range cases {
		_, ierr := EvalString(src, &Env{})
		prog := Compile(MustParse(src))
		_, cerr := prog.Eval(&Env{})
		if ierr == nil || ierr.Error() != want {
			t.Errorf("interpreter %q: got %v, want %s", src, ierr, want)
		}
		if cerr == nil || cerr.Error() != want {
			t.Errorf("compiled %q: got %v, want %s", src, cerr, want)
		}
	}
}
