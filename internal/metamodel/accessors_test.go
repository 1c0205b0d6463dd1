package metamodel

import (
	"sync"
	"testing"
)

func TestPackageListingsAndLookups(t *testing.T) {
	zoo, str, intT := fixture(t)
	if got := zoo.Enumerations(); len(got) != 1 || got[0].Name() != "Diet" {
		t.Fatalf("Enumerations = %v", got)
	}
	if got := zoo.DataTypes(); len(got) != 2 || got[0] != str || got[1] != intT {
		t.Fatalf("DataTypes = %v", got)
	}
	if d, ok := zoo.DataType("String"); !ok || d != str {
		t.Fatal("DataType lookup failed")
	}
	if _, ok := zoo.DataType("Missing"); ok {
		t.Fatal("phantom data type")
	}
	sub := zoo.AddPackage("Sub")
	if got, ok := zoo.Package("Sub"); !ok || got != sub {
		t.Fatal("Package lookup failed")
	}
	if _, ok := zoo.Package("Missing"); ok {
		t.Fatal("phantom package")
	}
}

func TestFindClassifierAcrossKindsAndImports(t *testing.T) {
	zoo, str, _ := fixture(t)
	if c, ok := zoo.FindClassifier("Lion"); !ok || c.ClassifierKind() != KindClass {
		t.Fatal("class not found")
	}
	if c, ok := zoo.FindClassifier("Diet"); !ok || c.ClassifierKind() != KindEnumeration {
		t.Fatal("enum not found")
	}
	if c, ok := zoo.FindClassifier("String"); !ok || c != str {
		t.Fatal("data type not found")
	}
	if _, ok := zoo.FindClassifier("Ghost"); ok {
		t.Fatal("phantom classifier")
	}
	// Through a nested package.
	sub := zoo.AddPackage("Nested")
	nested := sub.AddClass("Inner")
	if c, ok := zoo.FindClassifier("Inner"); !ok || c != Classifier(nested) {
		t.Fatal("nested classifier not found")
	}
	// Through an import.
	other := NewPackage("Other")
	imported := other.AddClass("Imported")
	zoo.Import(other)
	zoo.Import(other) // duplicate import is a no-op
	zoo.Import(zoo)   // self-import is a no-op
	zoo.Import(nil)   // nil import is a no-op
	if got := zoo.Imports(); len(got) != 1 || got[0] != other {
		t.Fatalf("Imports = %v", got)
	}
	if c, ok := zoo.FindClass("Imported"); !ok || c != imported {
		t.Fatal("imported class not found")
	}
	if c, ok := zoo.FindClassifier("Imported"); !ok || c != Classifier(imported) {
		t.Fatal("imported classifier not found")
	}
}

func TestClassIntrospection(t *testing.T) {
	zoo, _, _ := fixture(t)
	lion, _ := zoo.Class("Lion")
	animal, _ := zoo.Class("Animal")
	if lion.Package() != zoo {
		t.Fatal("Package accessor wrong")
	}
	if supers := lion.Supers(); len(supers) != 1 || supers[0] != animal {
		t.Fatalf("Supers = %v", supers)
	}
	if all := lion.AllSupers(); len(all) != 1 || all[0] != animal {
		t.Fatalf("AllSupers = %v", all)
	}
	// Diamond: D -> B, C -> A yields A once.
	p := NewPackage("D")
	a := p.AddClass("A")
	b := p.AddClass("B")
	c := p.AddClass("C")
	b.AddSuper(a)
	c.AddSuper(a)
	d := p.AddClass("Dd")
	d.AddSuper(b)
	d.AddSuper(c)
	if all := d.AllSupers(); len(all) != 3 {
		t.Fatalf("diamond AllSupers = %v", all)
	}
	if own := lion.OwnProperties(); len(own) != 1 || own[0].Name() != "prey" {
		t.Fatalf("OwnProperties = %v", own)
	}
	// SetAbstract builder form.
	x := p.AddClass("X").SetAbstract()
	if !x.IsAbstract() {
		t.Fatal("SetAbstract failed")
	}
}

func TestPropertyIntrospection(t *testing.T) {
	zoo, str, _ := fixture(t)
	lion, _ := zoo.Class("Lion")
	prey, _ := lion.Property("prey")
	if prey.Owner() != lion {
		t.Fatal("Owner wrong")
	}
	if prey.QualifiedName() != "Zoo.Lion.prey" {
		t.Fatalf("QualifiedName = %q", prey.QualifiedName())
	}
	if prey.IsRequired() {
		t.Fatal("0..* should not be required")
	}
	req := lion.AddProperty("mandatory", str, 1, 1)
	if !req.IsRequired() {
		t.Fatal("1..1 should be required")
	}
	comp := lion.AddRefs("cubs", lion).SetComposite()
	if !comp.IsComposite() {
		t.Fatal("SetComposite failed")
	}
}

func TestEnumAndDataTypeIdentity(t *testing.T) {
	zoo, str, _ := fixture(t)
	diet, _ := zoo.Enumeration("Diet")
	if diet.QualifiedName() != "Zoo.Diet" {
		t.Fatalf("enum QualifiedName = %q", diet.QualifiedName())
	}
	if str.Name() != "String" || str.QualifiedName() != "Zoo.String" {
		t.Fatalf("datatype identity: %q %q", str.Name(), str.QualifiedName())
	}
}

func TestObjectAccessors(t *testing.T) {
	zoo, _, _ := fixture(t)
	lion, _ := zoo.Class("Lion")
	gazelle, _ := zoo.Class("Gazelle")
	l := MustNewObject(lion)
	g := MustNewObject(gazelle)
	if l.ID() == 0 || l.ID() == g.ID() {
		t.Fatal("IDs not unique")
	}
	g.MustSet("name", String("Gia"))
	l.MustAppend("prey", Ref{Target: g})
	// Single-valued ref accessor via a fresh property.
	encl, _ := zoo.Class("Enclosure")
	e := MustNewObject(encl)
	e.MustSet("name", String("Savanna"))
	e.MustAppend("occupants", Ref{Target: l})
	if got := e.GetRefs("occupants"); len(got) != 1 || got[0] != l {
		t.Fatal("GetRefs wrong")
	}
	// GetRef on unset and non-ref slots.
	node := zoo.AddClass("WithRef")
	node.AddRef("one", lion)
	o := MustNewObject(node)
	if o.GetRef("one") != nil {
		t.Fatal("unset GetRef should be nil")
	}
	o.MustSet("one", Ref{Target: l})
	if o.GetRef("one") != l {
		t.Fatal("GetRef wrong")
	}
	// SetBool round trip.
	p := NewPackage("B")
	boolT := p.AddDataType("Boolean", PrimBoolean)
	cls := p.AddClass("Flags")
	cls.AddAttr("on", boolT)
	fo := MustNewObject(cls)
	if err := fo.SetBool("on", true); err != nil {
		t.Fatal(err)
	}
	if !fo.GetBool("on") {
		t.Fatal("SetBool/GetBool round trip failed")
	}
}

func TestValueKindsAndEquality(t *testing.T) {
	zoo, _, _ := fixture(t)
	diet, _ := zoo.Enumeration("Diet")
	lion, _ := zoo.Class("Lion")
	l := MustNewObject(lion)

	if (Bool(true)).Kind() != VBool || (Real(1)).Kind() != VReal {
		t.Fatal("kinds wrong")
	}
	el := EnumLit{Enum: diet, Literal: "Carnivore"}
	if el.Kind() != VEnum || el.String() != "Diet::Carnivore" {
		t.Fatalf("enum lit rendering: %q", el.String())
	}
	bare := EnumLit{Literal: "Loose"}
	if bare.String() != "Loose" {
		t.Fatalf("bare literal rendering: %q", bare.String())
	}
	if !el.Equal(el) || el.Equal(EnumLit{Enum: diet, Literal: "Herbivore"}) || el.Equal(String("x")) {
		t.Fatal("enum equality wrong")
	}
	r := Ref{Target: l}
	if r.Kind() != VRef || !r.Equal(Ref{Target: l}) || r.Equal(Ref{}) || r.Equal(Int(1)) {
		t.Fatal("ref equality wrong")
	}
	if (&List{}).Kind() != VList {
		t.Fatal("list kind wrong")
	}
	if NewList(Int(1)).Equal(Int(1)) {
		t.Fatal("list vs scalar equality")
	}
}

func TestModelMetamodelAccessor(t *testing.T) {
	zoo, _, _ := fixture(t)
	m := NewModel("m", zoo)
	if m.Metamodel() != zoo {
		t.Fatal("Metamodel accessor wrong")
	}
}

// processWidePackage is built once per process: the process-wide registry
// refuses a second package under the same name, so a rerun of
// TestProcessWideRegistry (go test -count=2) must register the same one.
var processWidePackage = sync.OnceValue(func() *Package { return NewPackage("ProcessWideRegistryTest") })

func TestProcessWideRegistry(t *testing.T) {
	p := processWidePackage()
	if err := Register(p); err != nil {
		t.Fatal(err)
	}
	MustRegister(p) // re-registering the same package is fine
	got, ok := Lookup("ProcessWideRegistryTest")
	if !ok || got != p {
		t.Fatal("process-wide lookup failed")
	}
	found := false
	for _, name := range RegisteredNames() {
		if name == "ProcessWideRegistryTest" {
			found = true
		}
	}
	if !found {
		t.Fatal("name missing from RegisteredNames")
	}
	// MustRegister panics on conflict.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustRegister(NewPackage("ProcessWideRegistryTest"))
}

func TestSortedNames(t *testing.T) {
	got := SortedNames(map[string]int{"b": 1, "a": 2, "c": 3})
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("SortedNames = %v", got)
	}
}

func TestDuplicatePropertyAndEmptyNamePanics(t *testing.T) {
	zoo, str, _ := fixture(t)
	lion, _ := zoo.Class("Lion")
	for _, f := range []func(){
		func() { lion.AddProperty("prey", str, 0, 1) }, // duplicate
		func() { lion.AddProperty("", str, 0, 1) },     // empty
		func() { lion.AddProperty("nilType", nil, 0, 1) },
		func() { lion.AddSuper(nil) },
		func() { zoo.AddClass("") },
		func() { zoo.AddDataType("String", PrimString) }, // clash with existing
		func() { zoo.AddPackage("Lion"); zoo.AddClass("Lion") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
