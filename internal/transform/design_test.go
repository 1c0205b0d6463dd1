package transform_test

import (
	"strings"
	"testing"

	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/metamodel"
	. "github.com/modeldriven/dqwebre/internal/transform"
	"github.com/modeldriven/dqwebre/internal/uml"
)

// caseStudyDesign runs the full MDA chain on the case study:
// requirements → DQSR → design.
func caseStudyDesign(t testing.TB) (*uml.Model, *Trace) {
	t.Helper()
	e := easychair.MustBuildModel()
	dqsr, _, err := RunDQR2DQSR(e.Model)
	if err != nil {
		t.Fatal(err)
	}
	design, trace, err := RunDQSR2Design(dqsr)
	if err != nil {
		t.Fatal(err)
	}
	return design, trace
}

func TestDQSR2DesignClassInventory(t *testing.T) {
	design, _ := caseStudyDesign(t)
	classes, _ := design.AllInstancesOf(uml.MetaClass)
	if len(classes) != 4 {
		t.Fatalf("design classes = %d, want 4", len(classes))
	}
	byName := map[string]*metamodel.Object{}
	for _, c := range classes {
		byName[c.GetString("name")] = c
	}
	for _, want := range []string{
		"TraceabilityMetadata", "ConfidentialityMetadata",
		"ReviewDQValidator", "EvaluationScoreRange",
	} {
		if byName[want] == nil {
			t.Fatalf("missing design class %q (have %v)", want, keys(byName))
		}
	}

	// The metadata-store class carries the metadata attributes plus the
	// record key and lifecycle operations.
	tm := byName["TraceabilityMetadata"]
	attrNames := names(tm.GetRefs("attributes"))
	for _, want := range []string{"record_key", "stored_by", "stored_date", "last_modified_by", "last_modified_date"} {
		if !contains(attrNames, want) {
			t.Errorf("TraceabilityMetadata lacks attribute %s (has %v)", want, attrNames)
		}
	}
	opNames := names(tm.GetRefs("operations"))
	if !contains(opNames, "recordStore") || !contains(opNames, "recordModify") {
		t.Errorf("TraceabilityMetadata ops = %v", opNames)
	}

	// Timestamp typing for date attributes.
	for _, a := range tm.GetRefs("attributes") {
		if strings.Contains(a.GetString("name"), "date") && a.GetString("type") != "Timestamp" {
			t.Errorf("attribute %s type = %s", a.GetString("name"), a.GetString("type"))
		}
	}

	// The validator class exposes the check operations.
	v := byName["ReviewDQValidator"]
	vOps := names(v.GetRefs("operations"))
	if !contains(vOps, "check_precision") || !contains(vOps, "check_completeness") {
		t.Errorf("validator ops = %v", vOps)
	}

	// The constraint class carries bounds as defaulted attributes.
	cc := byName["EvaluationScoreRange"]
	ccAttrs := names(cc.GetRefs("attributes"))
	if !contains(ccAttrs, "lower_bound") || !contains(ccAttrs, "upper_bound") {
		t.Errorf("constraint attrs = %v", ccAttrs)
	}
	if ops := names(cc.GetRefs("operations")); !contains(ops, "holds") {
		t.Errorf("constraint ops = %v", ops)
	}
}

func TestDQSR2DesignRequirementTraces(t *testing.T) {
	design, _ := caseStudyDesign(t)
	reqs, _ := design.AllInstancesOf(uml.MetaRequirement)
	if len(reqs) != 4 {
		t.Fatalf("design requirements = %d, want 4", len(reqs))
	}
	for _, r := range reqs {
		traced := r.GetRefs("tracedTo")
		if len(traced) == 0 {
			t.Errorf("requirement %q traces to nothing", r.GetString("name"))
		}
		for _, target := range traced {
			if !target.IsA(uml.MustClass(uml.MetaClass)) {
				t.Errorf("trace target %s is not a Class", target.Label())
			}
		}
		if r.GetString("text") == "" || r.GetInt("id") == 0 {
			t.Errorf("requirement %q lacks id/text", r.GetString("name"))
		}
	}
	// The design model conforms to plain UML.
	if vs := metamodel.CheckConformance(design.Model); len(vs) != 0 {
		t.Fatalf("design conformance: %v", vs)
	}
}

func TestClassNameFor(t *testing.T) {
	cases := map[string]string{
		"traceability metadata":  "TraceabilityMetadata",
		"review DQ validator":    "ReviewDQValidator",
		"evaluation score range": "EvaluationScoreRange",
		"a-b_c d":                "ABCD",
		"":                       "Component",
	}
	for in, want := range cases {
		if got := ClassNameForTest(in); got != want {
			t.Errorf("classNameFor(%q) = %q, want %q", in, got, want)
		}
	}
}

func names(objs []*metamodel.Object) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.GetString("name")
	}
	return out
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func keys(m map[string]*metamodel.Object) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestDQSR2DesignTypesConstraintPayloads checks that the constraint class
// types each payload by its codec kind, in model order: bounds Integer
// with their value, ranges Range, and an "ocl=" predicate OCLExpression.
func TestDQSR2DesignTypesConstraintPayloads(t *testing.T) {
	e := easychair.MustBuildModel()
	if err := e.ScoreConstraint.Append("constraintData", metamodel.String("ocl=overall_evaluation <> 0")); err != nil {
		t.Fatal(err)
	}
	dqsr, _, err := RunDQR2DQSR(e.Model)
	if err != nil {
		t.Fatal(err)
	}
	design, _, err := RunDQSR2Design(dqsr)
	if err != nil {
		t.Fatal(err)
	}
	cls, ok := design.FindByName(uml.MetaClass, "EvaluationScoreRange")
	if !ok {
		t.Fatal("no EvaluationScoreRange class")
	}
	var got []string
	for _, a := range cls.GetRefs("attributes") {
		got = append(got, a.GetString("name")+" : "+a.GetString("type"))
	}
	want := []string{
		"lower_bound : Integer = -3",
		"upper_bound : Integer = 3",
		"overall_evaluation in [-3,3] : Range",
		"reviewer_confidence in [0,5] : Range",
		"ocl : OCLExpression = overall_evaluation <> 0",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("constraint attributes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
