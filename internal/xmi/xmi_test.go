package xmi

import (
	"strings"
	"sync"
	"testing"

	"github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/metamodel"
	"github.com/modeldriven/dqwebre/internal/uml"
	"github.com/modeldriven/dqwebre/internal/webre"
)

// buildSample constructs a small DQ_WebRE requirements model exercising all
// value kinds: strings, ints, enums, refs, lists and tagged values.
func buildSample(t testing.TB) *dqwebre.RequirementsModel {
	t.Helper()
	rm := dqwebre.NewRequirementsModel("sample")
	member := rm.WebUser("PC member")
	process := rm.WebProcess("Add new review to submission", member)
	content := rm.Content("evaluation scores", "overall_evaluation", "reviewer_confidence")
	ic := rm.InformationCase("Add all data as result of review", process, content)
	req := rm.DQRequirement("validate the score assigned to each topic of revision",
		iso25012.Precision, ic)
	rm.Specify(req, 4, "validate the score assigned to each topic of revision")
	ui := rm.WebUI("webpage of New Review")
	val := rm.DQValidator("score validator", []string{"check_precision"}, ui)
	rm.DQConstraint("score range", 0, 10, []string{"overall_evaluation in [-3,3]"}, val)
	rm.DQMetadata("traceability metadata",
		[]string{"stored_by", "stored_date"}, content)
	if err := rm.Err(); err != nil {
		t.Fatal(err)
	}
	return rm
}

func opts() Options {
	return Options{Profiles: []*uml.Profile{webre.Profile(), dqwebre.Profile()}}
}

func TestXMLRoundTrip(t *testing.T) {
	rm := buildSample(t)
	data, err := Marshal(rm.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), xmlHeaderPrefix) {
		t.Fatalf("missing XML header: %.60s", data)
	}
	back, err := Unmarshal(data, opts())
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := Equivalent(rm.Model, back); !ok {
		t.Fatalf("round trip not equivalent: %s", diff)
	}
	// And the re-marshal is byte-identical (determinism).
	data2, err := Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("re-marshal differs")
	}
}

const xmlHeaderPrefix = "<?xml"

func TestJSONRoundTrip(t *testing.T) {
	rm := buildSample(t)
	data, err := MarshalJSON(rm.Model)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalJSON(data, opts())
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := Equivalent(rm.Model, back); !ok {
		t.Fatalf("json round trip not equivalent: %s", diff)
	}
}

func TestXMLPreservesStereotypesAndTags(t *testing.T) {
	rm := buildSample(t)
	data, err := Marshal(rm.Model)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`stereotype="InformationCase"`,
		`stereotype="DQ_Requirement"`,
		`stereotype="DQConstraint"`,
		`name="upper_bound"`,
		`literal="Precision"`,
		`metamodel="DQ_WebRE"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("serialized form lacks %q", want)
		}
	}
	back, err := Unmarshal(data, opts())
	if err != nil {
		t.Fatal(err)
	}
	cons := back.StereotypedBy(dqwebre.MetaDQConstraint)
	if len(cons) != 1 {
		t.Fatalf("constraints after round trip = %d", len(cons))
	}
	app, ok := back.Application(cons[0], dqwebre.MetaDQConstraint)
	if !ok {
		t.Fatal("application lost")
	}
	v, ok := app.Tag("upper_bound")
	if !ok || v != metamodel.Int(10) {
		t.Fatalf("upper_bound tag = %v", v)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	rm := buildSample(t)
	good, err := Marshal(rm.Model)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(string) string
		opt  Options
	}{
		{"bad xml", func(s string) string { return s[:len(s)/2] }, opts()},
		{"unknown metamodel", func(s string) string {
			return strings.Replace(s, `metamodel="DQ_WebRE"`, `metamodel="Ghost"`, 1)
		}, opts()},
		{"missing profile", func(s string) string { return s }, Options{}},
		{"unknown class", func(s string) string {
			return strings.Replace(s, `class="WebUser"`, `class="Ghost"`, 1)
		}, opts()},
		{"dangling ref", func(s string) string {
			return strings.Replace(s, `ref="WebUser.1"`, `ref="Ghost.9"`, 1)
		}, opts()},
		{"unknown stereotype", func(s string) string {
			return strings.Replace(s, `stereotype="InformationCase"`, `stereotype="Ghost"`, 1)
		}, opts()},
		{"bad literal", func(s string) string {
			return strings.Replace(s, `literal="Precision"`, `literal="Velocity"`, 1)
		}, opts()},
	}
	for _, c := range cases {
		if _, err := Unmarshal([]byte(c.mut(string(good))), c.opt); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	doc := &Document{
		Version: "2.1", Name: "d", Metamodel: "UML",
		Elements: []Element{
			{XID: "a", Class: "Actor"},
			{XID: "a", Class: "Actor"},
		},
	}
	uml.Metamodel() // ensure registered
	if _, err := FromDocument(doc, Options{}); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestMissingIDRejected(t *testing.T) {
	uml.Metamodel()
	doc := &Document{
		Version: "2.1", Name: "d", Metamodel: "UML",
		Elements: []Element{{Class: "Actor"}},
	}
	if _, err := FromDocument(doc, Options{}); err == nil {
		t.Fatal("missing id accepted")
	}
}

func TestForwardReferencesResolve(t *testing.T) {
	uml.Metamodel()
	doc := &Document{
		Version: "2.1", Name: "fwd", Metamodel: "UML",
		Elements: []Element{
			{XID: "i1", Class: "Include", Slots: []Slot{
				{Name: "addition", Value: XValue{Kind: "ref", Ref: "u2"}}, // forward
			}},
			{XID: "u2", Class: "UseCase", Slots: []Slot{
				{Name: "name", Value: XValue{Kind: "string", Text: "target"}},
			}},
		},
	}
	m, err := FromDocument(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, ok := m.ByXID("i1")
	if !ok || inc.GetRef("addition") == nil {
		t.Fatal("forward reference not resolved")
	}
}

func TestEquivalentDetectsDifferences(t *testing.T) {
	a := buildSample(t)
	b := buildSample(t)
	if ok, _ := Equivalent(a.Model, b.Model); !ok {
		t.Fatal("identically built models should be equivalent")
	}
	// Mutate one slot.
	procs, _ := b.Model.AllInstancesOf("WebProcess")
	procs[0].MustSet("name", metamodel.String("renamed"))
	if ok, diff := Equivalent(a.Model, b.Model); ok || diff == "" {
		t.Fatal("difference not detected")
	}
	// Different element counts.
	c := buildSample(t)
	c.WebUser("extra")
	if ok, diff := Equivalent(a.Model, c.Model); ok || !strings.Contains(diff, "count") {
		t.Fatalf("count difference not detected: %s", diff)
	}
}

// vkPackage is a synthetic metamodel exercising bool and real slots,
// absent from the DQ fixture. It is built once per process: the
// process-wide registry refuses a second package under the same name, so a
// rerun (go test -count=2) must register the same one.
var vkPackage = sync.OnceValue(func() *metamodel.Package {
	p := metamodel.NewPackage("VK")
	boolT := p.AddDataType("Boolean", metamodel.PrimBoolean)
	realT := p.AddDataType("Real", metamodel.PrimReal)
	c := p.AddClass("Thing")
	c.AddAttr("flag", boolT)
	c.AddAttr("score", realT)
	return p
})

func TestValueKindsRoundTrip(t *testing.T) {
	p := vkPackage()
	metamodel.MustRegister(p)

	m := uml.NewModel("vk", p)
	o := m.MustCreate("Thing")
	o.MustSet("flag", metamodel.Bool(true))
	o.MustSet("score", metamodel.Real(2.75))

	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bo := back.Objects()[0]
	if !bo.GetBool("flag") {
		t.Fatal("bool lost")
	}
	if v, _ := bo.Get("score"); v != metamodel.Real(2.75) {
		t.Fatalf("real = %v", v)
	}
}

func TestDiffIdenticalModelsEmpty(t *testing.T) {
	a := buildSample(t)
	b := buildSample(t)
	if ds := Diff(a.Model, b.Model); len(ds) != 0 {
		t.Fatalf("diff of identical builds = %v", ds)
	}
}

func TestDiffDetectsEveryKind(t *testing.T) {
	a := buildSample(t)
	b := buildSample(t)

	// Slot change.
	proc, _ := b.Model.FindByName("WebProcess", "Add new review to submission")
	proc.MustSet("name", metamodel.String("renamed process"))
	// Addition.
	b.WebUser("extra user")
	// Tag change.
	cons := b.Model.StereotypedBy(dqwebre.MetaDQConstraint)[0]
	app, _ := b.Model.Application(cons, dqwebre.MetaDQConstraint)
	app.MustSetTag("upper_bound", metamodel.Int(99))
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}

	ds := Diff(a.Model, b.Model)
	kinds := map[DiffKind]int{}
	for _, d := range ds {
		kinds[d.Kind]++
		if d.String() == "" {
			t.Error("empty rendering")
		}
	}
	if kinds[DiffSlotChanged] == 0 {
		t.Errorf("no slot change detected: %v", ds)
	}
	if kinds[DiffAdded] == 0 {
		t.Errorf("no addition detected: %v", ds)
	}
	if kinds[DiffTagChanged] != 1 {
		t.Errorf("tag changes = %d: %v", kinds[DiffTagChanged], ds)
	}

	// Removal: diff the other way round sees the extra user as removed.
	rds := Diff(b.Model, a.Model)
	removed := 0
	for _, d := range rds {
		if d.Kind == DiffRemoved {
			removed++
		}
	}
	if removed == 0 {
		t.Errorf("no removal detected: %v", rds)
	}
}

func TestDiffStereotypeSetChange(t *testing.T) {
	a := buildSample(t)
	b := buildSample(t)
	// Unapply a stereotype in b.
	val := b.Model.StereotypedBy(dqwebre.MetaDQValidator)[0]
	s, _ := b.Model.ResolveStereotype(dqwebre.MetaDQValidator)
	b.Model.Unapply(val, s)
	ds := Diff(a.Model, b.Model)
	found := false
	for _, d := range ds {
		if d.Kind == DiffStereotypesChanged {
			found = true
		}
	}
	if !found {
		t.Fatalf("stereotype change not detected: %v", ds)
	}
}

func TestDiffDeterministicOrder(t *testing.T) {
	a := buildSample(t)
	b := buildSample(t)
	b.WebUser("zzz")
	b.WebUser("aaa")
	d1 := Diff(a.Model, b.Model)
	d2 := Diff(a.Model, b.Model)
	if len(d1) != len(d2) {
		t.Fatal("diff length unstable")
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("diff order unstable")
		}
	}
}
