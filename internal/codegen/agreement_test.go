package codegen_test

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"

	. "github.com/modeldriven/dqwebre/internal/codegen"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/dqwebre"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/transform"
)

// rangedModel is a one-Content model whose Precision requirement is
// realized by a DQConstraint with the given own bounds and payloads.
func rangedModel(t *testing.T, content string, fields []string, lower, upper int64, payloads ...string) *dqwebre.RequirementsModel {
	t.Helper()
	rm := dqwebre.NewRequirementsModel("ranged")
	user := rm.WebUser("user")
	process := rm.WebProcess("enter data", user)
	ic := rm.InformationCase("enter "+content, process, rm.Content(content, fields...))
	req := rm.DQRequirement("validate ranges", iso25012.Precision, ic)
	rm.Specify(req, 1, "Every ranged field lies inside its range.")
	validator := rm.DQValidator("range validator", []string{"check_precision"}, rm.WebUI("entry page"))
	rm.DQConstraint("ranges", lower, upper, payloads, validator)
	if err := rm.Err(); err != nil {
		t.Fatal(err)
	}
	return rm
}

var (
	ddlCheck = regexp.MustCompile(`(\w+) INTEGER CHECK \(\w+ BETWEEN (-?\d+) AND (-?\d+)\)`)
	formMin  = regexp.MustCompile(`name="(\w+)" min="(-?\d+)" max="(-?\d+)"`)
)

// rangesIn collects field → [lo,hi] from the matches of re in s.
func rangesIn(t *testing.T, re *regexp.Regexp, s string) map[string][2]int64 {
	t.Helper()
	out := map[string][2]int64{}
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		lo, err1 := strconv.ParseInt(m[2], 10, 64)
		hi, err2 := strconv.ParseInt(m[3], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable range in %q", m[0])
		}
		out[m[1]] = [2]int64{lo, hi}
	}
	return out
}

// enforcerFor runs the model through DQR2DQSR and builds its enforcer.
func enforcerFor(t *testing.T, rm *dqwebre.RequirementsModel) *dqruntime.Enforcer {
	t.Helper()
	dqsr, _, err := transform.RunDQR2DQSR(rm)
	if err != nil {
		t.Fatal(err)
	}
	enf, err := dqruntime.BuildFromDQSR(dqsr)
	if err != nil {
		t.Fatal(err)
	}
	return enf
}

// readerRanges returns the range each reader of the model's payloads
// gives each field: the DDL's CHECK, the form's min/max and the
// enforcer's PrecisionCheck bounds.
func readerRanges(t *testing.T, rm *dqwebre.RequirementsModel, infoCase string) (ddl, form, enforcer map[string][2]int64) {
	t.Helper()
	sql, err := SQLDDL(rm)
	if err != nil {
		t.Fatal(err)
	}
	html, err := HTMLForm(rm, infoCase)
	if err != nil {
		t.Fatal(err)
	}
	enforcer = map[string][2]int64{}
	for _, c := range enforcerFor(t, rm).Validator().Checks() {
		if p, ok := c.(dqruntime.PrecisionCheck); ok {
			enforcer[p.Field] = [2]int64{p.Lower, p.Upper}
		}
	}
	return rangesIn(t, ddlCheck, sql), rangesIn(t, formMin, html), enforcer
}

// TestPayloadReadersAgree puts one range payload at a time on a
// DQConstraint whose own bounds, [-7,7], differ from it. The DDL's CHECK,
// the form's min/max and the enforcer's PrecisionCheck must all take the
// same range from the payload, or none may use it: then the DDL and form
// have no range and the enforcer checks the constraint's own bounds.
func TestPayloadReadersAgree(t *testing.T) {
	const field = "overall_evaluation"
	own := [2]int64{-7, 7}
	for _, tc := range []struct {
		payload string
		want    *[2]int64 // nil: no reader uses the payload
	}{
		{payload: field + " in [-3,3]", want: &[2]int64{-3, 3}},
		{payload: field + " in [3,-3]", want: &[2]int64{-3, 3}},
		{payload: field + " in [-3,3abc]"},
		{payload: field + " in [-3,1_0]"},
		{payload: field + " in [-3,1.5]"},
		{payload: " in [-3,3]"},
		{payload: field + " in [-3 3]"},
	} {
		t.Run(tc.payload, func(t *testing.T) {
			rm := rangedModel(t, "scores", []string{field}, own[0], own[1], tc.payload)
			ddl, form, enforcer := readerRanges(t, rm, "enter scores")
			got := fmt.Sprintf("ddl %v, form %v, enforcer %v", ddl, form, enforcer)
			if tc.want == nil {
				if len(ddl) != 0 || len(form) != 0 || enforcer[field] != own {
					t.Fatalf("rejected payload was used: %s (want no DDL or form range, enforcer %v)", got, own)
				}
				return
			}
			w := *tc.want
			if ddl[field] != w || form[field] != w || enforcer[field] != w || len(ddl) != 1 || len(form) != 1 {
				t.Fatalf("readers disagree: %s, want %v everywhere", got, w)
			}
		})
	}
}

// TestRangedFieldIsCheckedWhateverItsName gives a Precision requirement a
// range for "age", a field whose name does not look like a score. The
// form, the DDL and the enforcer all take [0,120] from it, so age=500 is
// rejected; "name", with no range and no numeric-looking name, gets no
// check.
func TestRangedFieldIsCheckedWhateverItsName(t *testing.T) {
	rm := rangedModel(t, "person", []string{"name", "age"}, 0, 10, "age in [0,120]")
	ddl, form, enforcer := readerRanges(t, rm, "enter person")
	want := map[string][2]int64{"age": {0, 120}}
	for reader, got := range map[string]map[string][2]int64{"ddl": ddl, "form": form, "enforcer": enforcer} {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s ranges = %v, want %v", reader, got, want)
		}
	}
	enf := enforcerFor(t, rm)
	if rep := enf.CheckInput(dqruntime.Record{"name": "Ada", "age": "500"}); rep.Passed() {
		t.Fatal("age=500 passed despite age in [0,120]")
	}
	if rep := enf.CheckInput(dqruntime.Record{"name": "Ada", "age": "36"}); !rep.Passed() {
		t.Fatalf("age=36 failed: %+v", rep.Failures())
	}
}
