package dqruntime

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/modeldriven/dqwebre/internal/iso25012"
)

func TestCompletenessCheck(t *testing.T) {
	c := CompletenessCheck{Required: []string{"a", "b", "c"}}
	full := Record{"a": "1", "b": "2", "c": "3"}
	res := c.Apply(full)
	if !res.Passed || res.Score != 1 {
		t.Fatalf("full record: %+v", res)
	}
	partial := Record{"a": "1", "b": "  ", "c": ""}
	res = c.Apply(partial)
	if res.Passed {
		t.Fatal("partial record passed")
	}
	if res.Score < 0.32 || res.Score > 0.34 {
		t.Fatalf("score = %v, want 1/3", res.Score)
	}
	if len(res.Details) != 2 {
		t.Fatalf("details = %v", res.Details)
	}
	// No required fields: vacuous pass.
	if res := (CompletenessCheck{}).Apply(Record{}); !res.Passed || res.Score != 1 {
		t.Fatal("empty requirement should pass")
	}
	if c.Name() != "check_completeness" || c.Characteristic() != iso25012.Completeness {
		t.Fatal("identity wrong")
	}
}

func TestPrecisionCheck(t *testing.T) {
	c := PrecisionCheck{Field: "overall_evaluation", Lower: -3, Upper: 3}
	cases := []struct {
		val  string
		pass bool
	}{
		{"0", true}, {"-3", true}, {"3", true},
		{"4", false}, {"-4", false}, {"2.5", false}, {"abc", false}, {"", false},
	}
	for _, tc := range cases {
		res := c.Apply(Record{"overall_evaluation": tc.val})
		if res.Passed != tc.pass {
			t.Errorf("value %q: passed=%v, want %v (%v)", tc.val, res.Passed, tc.pass, res.Details)
		}
	}
	// Optional blank passes.
	opt := PrecisionCheck{Field: "x", Lower: 0, Upper: 5, Optional: true}
	if res := opt.Apply(Record{}); !res.Passed {
		t.Fatal("optional blank should pass")
	}
	if c.Name() != "check_precision" || c.Characteristic() != iso25012.Precision {
		t.Fatal("identity wrong")
	}
}

func TestAccuracyCheck(t *testing.T) {
	c := AccuracyCheck{Field: "email_address", Pattern: EmailPattern}
	if res := c.Apply(Record{"email_address": "reviewer@example.org"}); !res.Passed {
		t.Fatalf("valid email failed: %v", res.Details)
	}
	for _, bad := range []string{"not-an-email", "a@b", "@x.y", "a b@c.d", ""} {
		if res := c.Apply(Record{"email_address": bad}); res.Passed {
			t.Errorf("bad email %q passed", bad)
		}
	}
	opt := AccuracyCheck{Field: "email_address", Pattern: EmailPattern, Optional: true}
	if res := opt.Apply(Record{}); !res.Passed {
		t.Fatal("optional blank should pass")
	}
	// Nil pattern never passes non-blank values.
	nilP := AccuracyCheck{Field: "x"}
	if res := nilP.Apply(Record{"x": "v"}); res.Passed {
		t.Fatal("nil pattern passed")
	}
}

func TestConsistencyCheck(t *testing.T) {
	c := ConsistencyCheck{
		Rule: "confidence requires evaluation",
		Predicate: func(r Record) bool {
			return !(r["reviewer_confidence"] != "" && r["overall_evaluation"] == "")
		},
	}
	if res := c.Apply(Record{"reviewer_confidence": "4", "overall_evaluation": "2"}); !res.Passed {
		t.Fatal("consistent record failed")
	}
	res := c.Apply(Record{"reviewer_confidence": "4"})
	if res.Passed {
		t.Fatal("inconsistent record passed")
	}
	if !strings.Contains(res.Details[0], "confidence requires evaluation") {
		t.Fatalf("details = %v", res.Details)
	}
	// Nil predicate is vacuously consistent.
	if res := (ConsistencyCheck{}).Apply(Record{}); !res.Passed {
		t.Fatal("nil predicate failed")
	}
}

func TestCurrentnessCheck(t *testing.T) {
	now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	c := CurrentnessCheck{
		Field:  "last_modified_date",
		MaxAge: 24 * time.Hour,
		Now:    func() time.Time { return now },
	}
	fresh := now.Add(-time.Hour).Format(time.RFC3339)
	if res := c.Apply(Record{"last_modified_date": fresh}); !res.Passed {
		t.Fatalf("fresh failed: %v", res.Details)
	}
	stale := now.Add(-48 * time.Hour).Format(time.RFC3339)
	if res := c.Apply(Record{"last_modified_date": stale}); res.Passed {
		t.Fatal("stale passed")
	}
	if res := c.Apply(Record{"last_modified_date": "not-a-date"}); res.Passed {
		t.Fatal("garbage date passed")
	}
	if res := c.Apply(Record{}); res.Passed {
		t.Fatal("blank non-optional passed")
	}
	opt := c
	opt.Optional = true
	if res := opt.Apply(Record{}); !res.Passed {
		t.Fatal("blank optional failed")
	}

	// Future timestamps: tolerated within MaxSkew, rejected beyond it — a
	// timestamp a year ahead is not "current" no matter how small MaxAge's
	// age computation makes it.
	drift := now.Add(2 * time.Minute).Format(time.RFC3339)
	if res := c.Apply(Record{"last_modified_date": drift}); !res.Passed {
		t.Fatalf("within-skew future failed: %v", res.Details)
	}
	future := now.Add(365 * 24 * time.Hour).Format(time.RFC3339)
	res := c.Apply(Record{"last_modified_date": future})
	if res.Passed {
		t.Fatal("far-future timestamp passed")
	}
	if !strings.Contains(res.Details[0], "in the future") {
		t.Fatalf("details = %v", res.Details)
	}
	strict := c
	strict.MaxSkew = -1
	if res := strict.Apply(Record{"last_modified_date": drift}); res.Passed {
		t.Fatal("future timestamp passed with no skew tolerance")
	}
	loose := c
	loose.MaxSkew = time.Hour
	if res := loose.Apply(Record{"last_modified_date": drift}); !res.Passed {
		t.Fatalf("within custom skew failed: %v", res.Details)
	}
}

func TestValidatorReport(t *testing.T) {
	v := NewValidator("review",
		CompletenessCheck{Required: []string{"first_name", "overall_evaluation"}},
		PrecisionCheck{Field: "overall_evaluation", Lower: -3, Upper: 3},
	)
	good := Record{"first_name": "Ada", "overall_evaluation": "2"}
	rep := v.Validate(good)
	if !rep.Passed() || len(rep.Failures()) != 0 {
		t.Fatalf("good record failed: %+v", rep.Results)
	}
	scores := rep.Scores()
	if scores[iso25012.Completeness] != 1 || scores[iso25012.Precision] != 1 {
		t.Fatalf("scores = %v", scores)
	}

	bad := Record{"first_name": "", "overall_evaluation": "9"}
	rep = v.Validate(bad)
	if rep.Passed() || len(rep.Failures()) != 2 {
		t.Fatalf("bad record: %+v", rep.Results)
	}
	scores = rep.Scores()
	if scores[iso25012.Completeness] != 0.5 {
		t.Fatalf("completeness = %v", scores[iso25012.Completeness])
	}
	if scores[iso25012.Precision] != 0 {
		t.Fatalf("precision = %v", scores[iso25012.Precision])
	}
	if v.Name() != "review" || len(v.Checks()) != 2 {
		t.Fatal("validator identity wrong")
	}
	if !strings.Contains(rep.Failures()[0].String(), "FAIL") {
		t.Fatal("result String should mark failures")
	}
}

// TestScoresTakeWorstCheck: multiple checks on the same characteristic
// aggregate by minimum.
func TestScoresTakeWorstCheck(t *testing.T) {
	v := NewValidator("v",
		PrecisionCheck{Field: "a", Lower: 0, Upper: 5},
		PrecisionCheck{Field: "b", Lower: 0, Upper: 5},
	)
	rep := v.Validate(Record{"a": "3", "b": "99"})
	if got := rep.Scores()[iso25012.Precision]; got != 0 {
		t.Fatalf("min aggregation broken: %v", got)
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{"a": "1"}
	c := r.Clone()
	c["a"] = "2"
	if r["a"] != "1" {
		t.Fatal("clone aliased")
	}
}

// TestQuickCompletenessScoreBounds: for arbitrary required sets and
// records, the score is always in [0,1] and Passed iff score==1.
func TestQuickCompletenessScoreBounds(t *testing.T) {
	f := func(required []string, present map[string]string) bool {
		// Deduplicate required; blank names are legal field names here.
		c := CompletenessCheck{Required: required}
		res := c.Apply(Record(present))
		if res.Score < 0 || res.Score > 1 {
			return false
		}
		return res.Passed == (res.Score == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPrecisionAgreesWithDirectComparison cross-checks the check
// against plain integer comparison.
func TestQuickPrecisionAgreesWithDirectComparison(t *testing.T) {
	f := func(v int32, lo, hi int16) bool {
		lower, upper := int64(lo), int64(hi)
		if lower > upper {
			lower, upper = upper, lower
		}
		c := PrecisionCheck{Field: "x", Lower: lower, Upper: upper}
		res := c.Apply(Record{"x": int64String(int64(v))})
		want := int64(v) >= lower && int64(v) <= upper
		return res.Passed == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func int64String(n int64) string {
	// strconv avoided deliberately to keep the helper independent of the
	// implementation under test.
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	if neg {
		return "-" + string(digits)
	}
	return string(digits)
}

func TestParseRangePayload(t *testing.T) {
	cases := []struct {
		in     string
		field  string
		lo, hi int64
		ok     bool
	}{
		{"overall_evaluation in [-3,3]", "overall_evaluation", -3, 3, true},
		{"reviewer_confidence in [0,5]", "reviewer_confidence", 0, 5, true},
		{"x in [ 1 , 9 ]", "x", 1, 9, true},
		{"no range here", "", 0, 0, false},
		{"x in [a,b]", "", 0, 0, false},
		{"x in [1]", "", 0, 0, false},
		{"x in [1,2", "", 0, 0, false},
	}
	for _, c := range cases {
		field, lo, hi, ok := parseRange(c.in)
		if ok != c.ok || field != c.field || lo != c.lo || hi != c.hi {
			t.Errorf("parseRange(%q) = (%q,%d,%d,%v), want (%q,%d,%d,%v)",
				c.in, field, lo, hi, ok, c.field, c.lo, c.hi, c.ok)
		}
	}
}
