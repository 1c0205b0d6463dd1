// Benchmarks comparing the tree-walking interpreter against compiled
// Programs on the three shapes that dominate production evaluation: a
// simple attribute predicate, an iterator-heavy forAll, and a model-wide
// allInstances scan. scripts/bench.sh distills these into BENCH_ocl.json.
//
// Attribute values deliberately stay in 0..10: Go boxes small non-negative
// integers without allocating, so the simple-predicate benchmark isolates
// the evaluator's own allocations (which must be zero when compiled).
package ocl

import (
	"testing"

	"github.com/modeldriven/dqwebre/internal/metamodel"
)

type benchFixture struct {
	mdl *metamodel.Model
	rec *metamodel.Object
	xs  []any
}

func newBenchFixture(b *testing.B) *benchFixture {
	b.Helper()
	pkg := metamodel.NewPackage("Bench")
	intT := pkg.AddDataType("Integer", metamodel.PrimInteger)
	rec := pkg.AddClass("Rec")
	rec.AddAttr("score", intT)
	mdl := metamodel.NewModel("bench", pkg)
	var first *metamodel.Object
	for i := 0; i < 100; i++ {
		o := mdl.MustCreate("Rec")
		o.MustSet("score", metamodel.Int(int64(i%11)))
		if first == nil {
			first = o
		}
	}
	xs := make([]any, 100)
	for i := range xs {
		xs[i] = int64(i % 11)
	}
	return &benchFixture{mdl: mdl, rec: first, xs: xs}
}

const (
	benchSimpleSrc = "self.score >= 0 and self.score <= 10"
	benchForAllSrc = "xs->forAll(x | 0 <= x and x <= 10 and x * x <= 100)"
	benchScanSrc   = "Rec.allInstances()->forAll(r | r.score >= 0 and r.score <= 10)"
)

func benchEnv(f *benchFixture, withVars bool) *Env {
	env := &Env{Model: f.mdl}
	if withVars {
		env.Vars = map[string]any{"self": f.rec, "xs": f.xs}
	}
	return env
}

func mustTrue(b *testing.B, eval func() (any, error)) {
	v, err := eval()
	if err != nil {
		b.Fatal(err)
	}
	if v != true {
		b.Fatalf("benchmark expression yielded %#v, want true", v)
	}
}

func BenchmarkEvalInterpreted(b *testing.B) {
	f := newBenchFixture(b)
	cases := []struct {
		name string
		src  string
	}{
		{"Simple", benchSimpleSrc},
		{"ForAll", benchForAllSrc},
		{"AllInstances", benchScanSrc},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			expr := MustParse(tc.src)
			env := benchEnv(f, true)
			mustTrue(b, func() (any, error) { return Eval(expr, env) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Eval(expr, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvalCompiled(b *testing.B) {
	f := newBenchFixture(b)

	b.Run("Simple", func(b *testing.B) {
		prog := Compile(MustParse(benchSimpleSrc), "xs")
		env := benchEnv(f, false) // hot path: shared Env, self via slot
		mustTrue(b, func() (any, error) { return prog.EvalSelf(f.rec, env) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prog.EvalSelf(f.rec, env); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("ForAll", func(b *testing.B) {
		prog := Compile(MustParse(benchForAllSrc), "xs")
		env := benchEnv(f, true) // same Env shape as the interpreted run
		mustTrue(b, func() (any, error) { return prog.Eval(env) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prog.Eval(env); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("AllInstances", func(b *testing.B) {
		prog := Compile(MustParse(benchScanSrc), "xs")
		env := benchEnv(f, false)
		mustTrue(b, func() (any, error) { return prog.Eval(env) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prog.Eval(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}
