// Table-driven edge-case tests for the DQSR constraint payloads, as
// BuildFromDQSR reads them: constraintPayloads collects them and the
// dqwebre payload codec parses them. These live in the dqruntime package
// (not _test) because constraintPayloads is unexported.
package dqruntime

import (
	"fmt"
	"testing"

	"github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/metamodel"
)

// boundsFixture is a minimal metamodel carrying just the shapes
// constraintPayloads reads: a requirement with realizedBy components
// that have kind and attributes. Building it locally keeps these tests
// independent of the real DQSR metamodel's registration.
type boundsFixture struct {
	req  *metamodel.Class
	comp *metamodel.Class
}

func newBoundsFixture() *boundsFixture {
	p := metamodel.NewPackage("boundstest")
	str := p.AddDataType("String", metamodel.PrimString)
	comp := p.AddClass("Component")
	comp.AddProperty("kind", str, 1, 1)
	comp.AddProperty("attributes", str, 0, metamodel.Unbounded)
	req := p.AddClass("Requirement")
	req.AddRefs("realizedBy", comp)
	return &boundsFixture{req: req, comp: comp}
}

// requirement builds a requirement whose components are (kind, attributes)
// pairs.
func (f *boundsFixture) requirement(t *testing.T, comps ...[2]any) *metamodel.Object {
	t.Helper()
	req := metamodel.MustNewObject(f.req)
	for _, c := range comps {
		comp := metamodel.MustNewObject(f.comp)
		comp.MustSet("kind", metamodel.String(c[0].(string)))
		for _, a := range c[1].([]string) {
			comp.MustAppend("attributes", metamodel.String(a))
		}
		if err := req.AppendRef("realizedBy", comp); err != nil {
			t.Fatal(err)
		}
	}
	return req
}

func TestBoundsFromComponentsTable(t *testing.T) {
	f := newBoundsFixture()
	tests := []struct {
		name         string
		comps        [][2]any
		lower, upper int64
		found        bool
	}{
		{
			name:  "no components",
			comps: nil,
		},
		{
			name:  "plain bounds",
			comps: [][2]any{{"constraint", []string{"lower_bound=-3", "upper_bound=3"}}},
			lower: -3, upper: 3, found: true,
		},
		{
			name:  "reversed bounds are swapped",
			comps: [][2]any{{"constraint", []string{"lower_bound=5", "upper_bound=1"}}},
			lower: 1, upper: 5, found: true,
		},
		{
			name:  "non-numeric payloads are ignored",
			comps: [][2]any{{"constraint", []string{"lower_bound=abc", "upper_bound=xyz"}}},
		},
		{
			name:  "one numeric bound still counts as found",
			comps: [][2]any{{"constraint", []string{"lower_bound=abc", "upper_bound=7"}}},
			lower: 0, upper: 7, found: true,
		},
		{
			name:  "non-constraint components are skipped",
			comps: [][2]any{{"validator", []string{"lower_bound=1", "upper_bound=2"}}},
		},
		{
			name: "later constraint overrides earlier",
			comps: [][2]any{
				{"constraint", []string{"lower_bound=0", "upper_bound=10"}},
				{"constraint", []string{"lower_bound=2", "upper_bound=4"}},
			},
			lower: 2, upper: 4, found: true,
		},
		{
			name:  "unrelated attributes are ignored",
			comps: [][2]any{{"constraint", []string{"scope=review", "field in [1,2]"}}},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req := f.requirement(t, tc.comps...)
			d := dqwebre.ReadConstraintData(constraintPayloads(req))
			lo, hi, found := d.Lower, d.Upper, d.HasBounds
			if lo != tc.lower || hi != tc.upper || found != tc.found {
				t.Fatalf("ReadConstraintData bounds = (%d, %d, %v), want (%d, %d, %v)",
					lo, hi, found, tc.lower, tc.upper, tc.found)
			}
		})
	}
}

// parseRange reads s through the payload codec and reports it as a range.
func parseRange(s string) (field string, lo, hi int64, ok bool) {
	p := dqwebre.ParsePayload(s)
	return p.Field, p.Lo, p.Hi, p.Kind == dqwebre.FieldRange
}

func TestParseRangePayloadTable(t *testing.T) {
	tests := []struct {
		in     string
		field  string
		lo, hi int64
		ok     bool
	}{
		{in: "overall_evaluation in [-3,3]", field: "overall_evaluation", lo: -3, hi: 3, ok: true},
		{in: "score in [ 0 , 5 ]", field: "score", lo: 0, hi: 5, ok: true},
		{in: "score in [5,0]", field: "score", lo: 0, hi: 5, ok: true}, // reversed bounds swapped
		{in: " in [1,2]"},                    // empty field name
		{in: "   in [1,2]"},                  // blank field name
		{in: "x in [a,b]"},                   // non-numeric bounds
		{in: "x in [1.5,2]"},                 // floats are not integers
		{in: "x in [1]"},                     // missing comma
		{in: "x in [1,2"},                    // unterminated bracket
		{in: "x in [1,2]]"},                  // trailing junk corrupts the hi bound
		{in: "x within [1,2]"},               // wrong keyword
		{in: ""},                             // empty payload
		{in: "lower_bound=3"},                // a bounds payload, not a range
		{in: "x in [9223372036854775808,9]"}, // lo overflows int64
		{in: "  padded   in [-1,1]", field: "padded", lo: -1, hi: 1, ok: true},
	}
	for _, tc := range tests {
		t.Run(fmt.Sprintf("%q", tc.in), func(t *testing.T) {
			field, lo, hi, ok := parseRange(tc.in)
			if field != tc.field || lo != tc.lo || hi != tc.hi || ok != tc.ok {
				t.Fatalf("parseRange(%q) = (%q, %d, %d, %v), want (%q, %d, %d, %v)",
					tc.in, field, lo, hi, ok, tc.field, tc.lo, tc.hi, tc.ok)
			}
		})
	}
}
