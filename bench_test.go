// Benchmark harness: one benchmark per table and figure of the paper
// (artifact regeneration cost), plus the synthetic scaling experiments
// S1–S4 of DESIGN.md — the paper itself reports no measurements, so these
// characterize the engines built to reproduce it. EXPERIMENTS.md records
// the observed shapes.
package dqwebre_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre"
	"github.com/modeldriven/dqwebre/internal/activity"
	"github.com/modeldriven/dqwebre/internal/diagram"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	idq "github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/metamodel"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/transform"
	"github.com/modeldriven/dqwebre/internal/webre"
	"github.com/modeldriven/dqwebre/internal/xmi"
)

// ---- Tables 1–3: catalog regeneration ----

// BenchmarkTable1_ISO25012Catalog regenerates the Table 1 catalog rows.
func BenchmarkTable1_ISO25012Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		defs := iso25012.All()
		if len(defs) != 15 {
			b.Fatal("catalog size")
		}
		for _, cat := range []iso25012.Category{
			iso25012.Inherent, iso25012.InherentAndSystem, iso25012.SystemDependent,
		} {
			_ = iso25012.ByCategory(cat)
		}
	}
}

// BenchmarkTable2_WebREMetamodel regenerates Table 2 with metamodel
// introspection of each element.
func BenchmarkTable2_WebREMetamodel(b *testing.B) {
	webre.Metamodel()
	for i := 0; i < b.N; i++ {
		rows := webre.Table2()
		if len(rows) != 9 {
			b.Fatal("row count")
		}
		for _, row := range rows {
			c := webre.MustClass(row.Element)
			_ = c.AllProperties()
		}
	}
}

// BenchmarkTable3_ProfileIntrospection regenerates Table 3 by walking the
// profile's stereotypes, bases, tags and constraints.
func BenchmarkTable3_ProfileIntrospection(b *testing.B) {
	p := dqwebre.Profile()
	for i := 0; i < b.N; i++ {
		rows := idq.Table3()
		if len(rows) != 7 {
			b.Fatal("row count")
		}
		for _, row := range rows {
			s, _ := p.Stereotype(row.Name)
			_ = s.BaseNames()
			_ = s.Tags()
			_ = s.Constraints()
		}
	}
}

// ---- Figures 1–7: diagram regeneration ----

// BenchmarkFigure1_ExtendedMetamodel renders the Fig. 1 class diagram.
func BenchmarkFigure1_ExtendedMetamodel(b *testing.B) {
	mm := dqwebre.Metamodel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := diagram.MetamodelPlantUML(mm, "Fig. 1", nil)
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func benchProfileFigure(b *testing.B, names ...string) {
	b.Helper()
	p := dqwebre.Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := diagram.ProfilePlantUML(p, "fig", names...)
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2_UseCaseStereotypes renders Fig. 2.
func BenchmarkFigure2_UseCaseStereotypes(b *testing.B) {
	benchProfileFigure(b, idq.MetaInformationCase, idq.MetaDQRequirement)
}

// BenchmarkFigure3_ActivityStereotype renders Fig. 3.
func BenchmarkFigure3_ActivityStereotype(b *testing.B) {
	benchProfileFigure(b, idq.MetaAddDQMetadata)
}

// BenchmarkFigure4_ClassStereotypes renders Fig. 4.
func BenchmarkFigure4_ClassStereotypes(b *testing.B) {
	benchProfileFigure(b, idq.MetaDQMetadata, idq.MetaDQValidator, idq.MetaDQConstraint)
}

// BenchmarkFigure5_RequirementStereotype renders Fig. 5.
func BenchmarkFigure5_RequirementStereotype(b *testing.B) {
	benchProfileFigure(b, idq.MetaDQReqSpecification)
}

// BenchmarkFigure6_EasyChairUseCases builds and renders the Fig. 6
// use-case diagram of the case study.
func BenchmarkFigure6_EasyChairUseCases(b *testing.B) {
	e := easychair.MustBuildModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := diagram.UseCasePlantUML(e.Model.Model, "Fig. 6")
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure7_EasyChairActivity renders the Fig. 7 activity diagram.
func BenchmarkFigure7_EasyChairActivity(b *testing.B) {
	e := easychair.MustBuildModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := diagram.ActivityPlantUML(e.Model.Model, e.Activity, "Fig. 7")
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkCaseStudyModelBuild measures constructing the whole Section 4
// model from scratch.
func BenchmarkCaseStudyModelBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := easychair.BuildModel()
		if err != nil {
			b.Fatal(err)
		}
		_ = e
	}
}

// ---- S1: validation engine scaling ----

// syntheticModel builds a well-formed DQ_WebRE model with n web processes,
// each with an InformationCase managing one Content (3 fields) and two DQ
// requirements. Total elements grow linearly in n.
func syntheticModel(b testing.TB, n int) *dqwebre.RequirementsModel {
	b.Helper()
	rm := dqwebre.NewRequirementsModel(fmt.Sprintf("synthetic-%d", n))
	user := rm.WebUser("user")
	dims := []dqwebre.Characteristic{dqwebre.Completeness, dqwebre.Precision,
		dqwebre.Traceability, dqwebre.Confidentiality}
	for i := 0; i < n; i++ {
		proc := rm.WebProcess(fmt.Sprintf("process %d", i), user)
		content := rm.Content(fmt.Sprintf("content %d", i),
			"field_a", "field_b", "score_level")
		ic := rm.InformationCase(fmt.Sprintf("manage data %d", i), proc, content)
		for j := 0; j < 2; j++ {
			dim := dims[(i+j)%len(dims)]
			req := rm.DQRequirement(fmt.Sprintf("req %d.%d %s", i, j, dim), dim, ic)
			rm.Specify(req, int64(i*2+j+1), "synthetic requirement")
		}
	}
	if err := rm.Err(); err != nil {
		b.Fatal(err)
	}
	return rm
}

// BenchmarkValidationScaling runs the full validation stack (conformance +
// metamodel rules + Table 3 profile constraints) over growing models.
func BenchmarkValidationScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("processes=%d", n), func(b *testing.B) {
			rm := syntheticModel(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := rm.Validate()
				if !rep.OK() {
					b.Fatalf("synthetic model invalid: %v", rep.Errors()[0])
				}
			}
		})
	}
}

// BenchmarkModelConstructionScaling isolates builder cost from validation.
func BenchmarkModelConstructionScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("processes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = syntheticModel(b, n)
			}
		})
	}
}

// ---- S2: transformation scaling ----

// BenchmarkTransformScaling runs DQR→DQSR over growing requirement sets.
func BenchmarkTransformScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("processes=%d", n), func(b *testing.B) {
			rm := syntheticModel(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dqsr, trace, err := transform.RunDQR2DQSR(rm)
				if err != nil {
					b.Fatal(err)
				}
				if len(trace.Links) == 0 || dqsr.Len() == 0 {
					b.Fatal("empty transformation result")
				}
			}
		})
	}
}

// ---- S3: runtime DQ enforcement overhead ----

// BenchmarkRuntimeDQOverhead measures the per-record cost of input
// validation as the number of enabled checks grows from 0 to 15.
func BenchmarkRuntimeDQOverhead(b *testing.B) {
	record := dqruntime.Record{
		"first_name": "Grace", "last_name": "Hopper",
		"email_address": "g@h.io", "overall_evaluation": "2",
		"reviewer_confidence": "4",
	}
	for _, nChecks := range []int{0, 1, 5, 15} {
		b.Run(fmt.Sprintf("checks=%d", nChecks), func(b *testing.B) {
			v := dqruntime.NewValidator("bench")
			for i := 0; i < nChecks; i++ {
				switch i % 3 {
				case 0:
					v.Add(dqruntime.CompletenessCheck{Required: []string{"first_name", "last_name"}})
				case 1:
					v.Add(dqruntime.PrecisionCheck{Field: "overall_evaluation", Lower: -3, Upper: 3})
				case 2:
					v.Add(dqruntime.AccuracyCheck{Field: "email_address", Pattern: dqruntime.EmailPattern})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := v.Validate(record)
				if !rep.Passed() {
					b.Fatal("record should pass")
				}
			}
		})
	}
}

// BenchmarkEnforcerPipeline measures assembling an enforcer from the case
// study's DQSR model (model → transformation → runtime wiring).
func BenchmarkEnforcerPipeline(b *testing.B) {
	e := easychair.MustBuildModel()
	dqsr, _, err := transform.RunDQR2DQSR(e.Model)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enf, err := dqwebre.BuildEnforcer(dqsr)
		if err != nil {
			b.Fatal(err)
		}
		_ = enf
	}
}

// BenchmarkMetadataStore measures traceability capture plus an
// authorization decision, the per-request metadata cost.
func BenchmarkMetadataStore(b *testing.B) {
	s := dqruntime.NewMetadataStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("rec/%d", i%1024)
		s.RecordStore(key, "user", 2, nil)
		if !s.Authorize(key, "user", 3) {
			b.Fatal("authorize")
		}
	}
}

// ---- S4: serialization and diagram scaling ----

// BenchmarkXMIRoundTrip measures marshal+unmarshal over growing models.
func BenchmarkXMIRoundTrip(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("processes=%d", n), func(b *testing.B) {
			rm := syntheticModel(b, n)
			data, err := xmi.Marshal(rm.Model)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := xmi.Marshal(rm.Model)
				if err != nil {
					b.Fatal(err)
				}
				back, err := dqwebre.UnmarshalXMI(out)
				if err != nil {
					b.Fatal(err)
				}
				if back.Len() != rm.Len() {
					b.Fatal("round trip lost elements")
				}
			}
		})
	}
}

// BenchmarkDiagramScaling measures use-case diagram emission over growing
// models.
func BenchmarkDiagramScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("processes=%d", n), func(b *testing.B) {
			rm := syntheticModel(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := diagram.UseCasePlantUML(rm.Model, "bench")
				if len(out) == 0 {
					b.Fatal("empty diagram")
				}
			}
		})
	}
}

// BenchmarkFig7Execution measures one full run of the paper's Fig. 7
// activity diagram through the interpreter (happy path, no retry loop).
func BenchmarkFig7Execution(b *testing.B) {
	e := easychair.MustBuildModel()
	hooks := activity.Hooks{
		Decide: func(n *metamodel.Object, guards []string) (int, error) {
			for i, g := range guards {
				if g == "yes" {
					return i, nil
				}
			}
			return 0, nil
		},
	}
	it, err := activity.New(e.Model.Model, e.Activity, hooks)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace, err := it.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(trace) != 12 {
			b.Fatalf("trace = %d steps", len(trace))
		}
	}
}

// ---- Observability overhead ----

// benchEnforcerCheck drives the enforcement hot path — CheckInput over the
// case study's review record — with or without the check observer that
// easychair attaches.
func benchEnforcerCheck(b *testing.B, instrumented bool) {
	e := easychair.MustBuildModel()
	dqsr, _, err := transform.RunDQR2DQSR(e.Model)
	if err != nil {
		b.Fatal(err)
	}
	enf, err := dqwebre.BuildEnforcer(dqsr)
	if err != nil {
		b.Fatal(err)
	}
	if instrumented {
		enf.AttachObserver(dqruntime.NewSeriesObserver(obs.NewSeriesSet(time.Minute, 60), obs.NewRegistry()))
	}
	record := dqwebre.Record{
		"first_name": "Grace", "last_name": "Hopper",
		"email_address": "g@h.io", "overall_evaluation": "2",
		"reviewer_confidence": "4",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !enf.CheckInput(record).Passed() {
			b.Fatal("record should pass")
		}
	}
}

// BenchmarkEnforcerUninstrumented is the baseline enforcement cost.
func BenchmarkEnforcerUninstrumented(b *testing.B) { benchEnforcerCheck(b, false) }

// BenchmarkEnforcerInstrumented is the same path through the observer
// easychair attaches — score series, dq_checks_total counters and
// dq_check_seconds histograms live, two clock reads per check — so the
// difference from the baseline is the observability cost of every form
// submission.
func BenchmarkEnforcerInstrumented(b *testing.B) { benchEnforcerCheck(b, true) }
