package ocl

import (
	"strings"
	"testing"

	"github.com/modeldriven/dqwebre/internal/metamodel"
)

func TestCompileTimeTypeResolution(t *testing.T) {
	_, m := libFixture(t)
	_, b1, _ := seedLibrary(t, m)

	// Unknown types fail deterministically at run time ...
	prog := Compile(MustParse("self.oclIsKindOf(NoSuch)"))
	if _, err := prog.EvalSelf(b1, &Env{Model: m}); err == nil || !strings.Contains(err.Error(), `unknown type "NoSuch"`) {
		t.Fatalf("unknown type arg: err=%v", err)
	}

	// ... and allInstances resolves its type through an Env that only
	// supplies the Model.
	prog = Compile(MustParse("Book.allInstances()->size()"))
	v, err := prog.Eval(&Env{Model: m})
	if err != nil || v != int64(2) {
		t.Fatalf("allInstances: v=%v err=%v", v, err)
	}
}

// TestSharedExtentNotWritten runs every operation that builds a collection
// over Book.allInstances(), whose slice the model memoizes and hands to
// every evaluation, through each engine in turn and checks the extent after
// each run: no operation may write its receiver.
func TestSharedExtentNotWritten(t *testing.T) {
	lib, m := libFixture(t)
	_, b1, b2 := seedLibrary(t, m)
	book, _ := lib.FindClass("Book")
	env := &Env{Model: m, Vars: map[string]any{"self": b2}}
	for _, op := range []string{
		"->select(b | b.pages < 500)",
		"->reject(b | b.pages > 500)",
		"->collect(b | b.pages)",
		"->sortedBy(b | b.pages)",
		"->asSet()",
		"->flatten()",
		"->reverse()",
		"->including(self)",
		"->excluding(self)",
		"->union(Book.allInstances())",
		"->intersection(Book.allInstances())",
		"->prepend(self)",
		".title",
	} {
		check := func(engine string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", engine, op, err)
			}
			if ext := m.Extent(book); len(ext) != 2 || ext[0] != b1 || ext[1] != b2 {
				t.Fatalf("%s %s wrote the shared extent: %v", engine, op, ext)
			}
		}
		expr := MustParse("Book.allInstances()" + op)
		_, err := Eval(expr, env)
		check("interpreted", err)
		_, err = Compile(expr).Eval(env)
		check("compiled", err)
	}
}

func TestProgramSlotsAndFrames(t *testing.T) {
	prog := Compile(MustParse("x + y * self"), "y", "x")
	if slot, ok := prog.Slot("self"); !ok || slot != 0 {
		t.Fatalf("self slot = %d, %v; want 0, true", slot, ok)
	}
	for _, name := range []string{"x", "y"} {
		if _, ok := prog.Slot(name); !ok {
			t.Fatalf("declared var %q has no slot", name)
		}
	}
	fr := prog.NewFrame(&Env{})
	defer fr.Release()
	fr.SetVar("self", int64(2))
	fr.SetVar("x", int64(10))
	fr.SetVar("y", int64(3))
	v, err := fr.Eval()
	if err != nil || v != int64(16) {
		t.Fatalf("frame eval: v=%v err=%v", v, err)
	}
	// Reusing the same frame with one rebound slot re-evaluates correctly.
	fr.SetVar("x", int64(0))
	if v, err = fr.Eval(); err != nil || v != int64(6) {
		t.Fatalf("frame re-eval: v=%v err=%v", v, err)
	}
	if ok := fr.SetVar("nope", 1); ok {
		t.Fatal("SetVar accepted an undeclared variable")
	}
}

func TestUndeclaredVarsFallBackToEnv(t *testing.T) {
	// A program compiled without declaring "z" still sees it through
	// Env.Vars, mirroring the interpreter's run-time resolution.
	prog := Compile(MustParse("z * 2"))
	v, err := prog.Eval(&Env{Vars: map[string]any{"z": int64(21)}})
	if err != nil || v != int64(42) {
		t.Fatalf("undeclared fallback: v=%v err=%v", v, err)
	}
	if _, err := prog.Eval(&Env{}); err == nil {
		t.Fatal("unbound undeclared variable should error")
	}
}

func TestCompileStringCache(t *testing.T) {
	p1, err := CompileString("self.pages > 0")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileString("self.pages > 0")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cache miss for identical (src, vars)")
	}
	p3, err := CompileString("self.pages > 0", "x")
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("cache collided across different Vars")
	}
	if _, err := CompileString("1 +"); err == nil {
		t.Fatal("parse error must propagate through CompileString")
	}
}

// TestEvalAllocsEmptyVars is the regression test for the satellite fix:
// evaluating with a nil/empty Vars map must not copy or allocate a map.
// The only allocation budget is the evaluator struct itself.
func TestEvalAllocsEmptyVars(t *testing.T) {
	expr := MustParse("1 < 2 and 3 < 4")
	env := &Env{}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Eval(expr, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Eval with empty Vars allocates %.1f objects/op, want <= 1", allocs)
	}
}

// TestCompiledEvalZeroAllocs pins the compiler's steady-state guarantee: a
// simple compiled predicate over an object evaluates with zero allocations
// (pooled frame, slot-bound self, no map traffic). Property values stay in
// the interpreter's small-int range so interface boxing is free; the
// negative bound is boxed once, at compile time.
func TestCompiledEvalZeroAllocs(t *testing.T) {
	lib := metamodel.NewPackage("P")
	intT := lib.AddDataType("Integer", metamodel.PrimInteger)
	cls := lib.AddClass("Rec")
	cls.AddAttr("score", intT)
	m := metamodel.NewModel("m", lib)
	o := m.MustCreate("Rec")
	o.MustSet("score", metamodel.Int(7))

	env := &Env{Model: m}
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"self.score >= 0 and self.score <= 10", true},
		{"self.score >= -3 and self.score <= 3", false},
	} {
		prog := Compile(MustParse(tc.src))
		// Warm the frame pool, then measure.
		if ok, err := prog.EvalBoolSelf(o, env); err != nil || ok != tc.want {
			t.Fatalf("%s: warmup: ok=%v err=%v", tc.src, ok, err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			ok, err := prog.EvalBoolSelf(o, env)
			if err != nil || ok != tc.want {
				t.Fatal("evaluation changed result under AllocsPerRun")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: compiled steady-state evaluation allocates %.2f objects/op, want 0", tc.src, allocs)
		}
	}
}

func TestFreeVars(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"score >= 0 and score <= 10", "score"},
		{"self.name.size() > 0", "self"},
		{"let k = 2 in k * n", "n"},
		{"xs->forAll(x | x > lo and x < hi)", "hi,lo,xs"},
		{"Book.allInstances()->size() > 0", ""},
		{"self.oclIsKindOf(Book) and other.oclIsUndefined()", "other,self"},
		{"Sequence{1, 2}->exists(self > t)", "t"},
		{"Genre::Fiction = g", "g"},
	}
	for _, tc := range cases {
		got := strings.Join(FreeVars(MustParse(tc.src)), ",")
		if got != tc.want {
			t.Errorf("FreeVars(%q) = %q, want %q", tc.src, got, tc.want)
		}
	}
}

func TestProgramConcurrentUse(t *testing.T) {
	_, m := libFixture(t)
	_, b1, b2 := seedLibrary(t, m)
	prog := Compile(MustParse("self.pages > 0 and self.title.size() > 0"))
	env := &Env{Model: m}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 500; i++ {
				for _, self := range []any{b1, b2} {
					if ok, err := prog.EvalBoolSelf(self, env); err != nil || !ok {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent evaluation: %v", err)
		}
	}
}
