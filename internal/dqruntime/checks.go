// Package dqruntime executes Data Quality Software Requirements at
// application runtime: it provides the check functions the paper's
// DQ_Validator elements promise (check_completeness, check_precision, ...),
// the metadata capture its DQ_Metadata elements store (traceability and
// confidentiality), and an Enforcer assembled directly from a DQSR model —
// closing the loop from captured requirement to executed check.
package dqruntime

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"github.com/modeldriven/dqwebre/internal/iso25012"
)

// Record is one unit of user-entered data: field name → raw string value,
// as a web form delivers it.
type Record map[string]string

// Clone returns an independent copy of the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Check is one executable data quality check over a record.
type Check interface {
	// Name identifies the check, e.g. "check_completeness".
	Name() string
	// Characteristic is the ISO/IEC 25012 characteristic the check measures.
	Characteristic() iso25012.Characteristic
	// Apply evaluates the record.
	Apply(r Record) CheckResult
}

// CheckResult is the outcome of one check on one record.
type CheckResult struct {
	// Check is the check's name.
	Check string
	// Characteristic measured.
	Characteristic iso25012.Characteristic
	// Passed reports whether the record satisfies the check outright.
	Passed bool
	// Score is the measured level in [0, 1]; 1 for a full pass.
	Score float64
	// Details lists the offending fields or conditions, empty on pass.
	Details []string
}

// String renders the result for reports.
func (cr CheckResult) String() string {
	verdict := "ok"
	if !cr.Passed {
		verdict = "FAIL " + strings.Join(cr.Details, "; ")
	}
	return fmt.Sprintf("%s [%s] score=%.2f %s", cr.Check, cr.Characteristic, cr.Score, verdict)
}

// CompletenessCheck verifies every required field has a non-blank value —
// the paper's "verify that all data have been completed by reviewer",
// realized as check_completeness.
type CompletenessCheck struct {
	// Required lists the fields that must be present and non-blank.
	Required []string
}

// Name returns "check_completeness".
func (CompletenessCheck) Name() string { return "check_completeness" }

// Characteristic returns Completeness.
func (CompletenessCheck) Characteristic() iso25012.Characteristic { return iso25012.Completeness }

// Apply scores the fraction of required fields that are filled.
func (c CompletenessCheck) Apply(r Record) CheckResult {
	res := CheckResult{Check: c.Name(), Characteristic: c.Characteristic()}
	if len(c.Required) == 0 {
		res.Passed, res.Score = true, 1
		return res
	}
	filled := 0
	for _, f := range c.Required {
		if strings.TrimSpace(r[f]) != "" {
			filled++
		} else {
			res.Details = append(res.Details, "missing "+f)
		}
	}
	res.Score = float64(filled) / float64(len(c.Required))
	res.Passed = filled == len(c.Required)
	return res
}

// PrecisionCheck verifies a numeric field lies within inclusive bounds —
// the paper's "validate the score assigned to each topic of revision",
// realized as check_precision with a DQConstraint's bounds.
type PrecisionCheck struct {
	// Field is the numeric field to check.
	Field string
	// Lower and Upper are the inclusive bounds.
	Lower, Upper int64
	// Optional, when true, passes blank values (completeness is a separate
	// concern).
	Optional bool
}

// Name returns "check_precision".
func (PrecisionCheck) Name() string { return "check_precision" }

// Characteristic returns Precision.
func (PrecisionCheck) Characteristic() iso25012.Characteristic { return iso25012.Precision }

// Apply parses the field and checks the bounds.
func (c PrecisionCheck) Apply(r Record) CheckResult {
	res := CheckResult{Check: c.Name(), Characteristic: c.Characteristic()}
	raw := strings.TrimSpace(r[c.Field])
	if raw == "" {
		if c.Optional {
			res.Passed, res.Score = true, 1
			return res
		}
		res.Details = []string{c.Field + " is blank"}
		return res
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		res.Details = []string{fmt.Sprintf("%s=%q is not an integer", c.Field, raw)}
		return res
	}
	if n < c.Lower || n > c.Upper {
		res.Details = []string{fmt.Sprintf("%s=%d outside [%d,%d]", c.Field, n, c.Lower, c.Upper)}
		return res
	}
	res.Passed, res.Score = true, 1
	return res
}

// AccuracyCheck verifies a field matches a syntactic pattern (e.g. an email
// address shape), a common realization of the Accuracy characteristic.
type AccuracyCheck struct {
	// Field is the field to check.
	Field string
	// Pattern is the anchored regular expression the value must match.
	Pattern *regexp.Regexp
	// Optional passes blank values.
	Optional bool
}

// Name returns "check_accuracy".
func (AccuracyCheck) Name() string { return "check_accuracy" }

// Characteristic returns Accuracy.
func (AccuracyCheck) Characteristic() iso25012.Characteristic { return iso25012.Accuracy }

// Apply matches the pattern.
func (c AccuracyCheck) Apply(r Record) CheckResult {
	res := CheckResult{Check: c.Name(), Characteristic: c.Characteristic()}
	raw := strings.TrimSpace(r[c.Field])
	if raw == "" {
		if c.Optional {
			res.Passed, res.Score = true, 1
			return res
		}
		res.Details = []string{c.Field + " is blank"}
		return res
	}
	if c.Pattern == nil || !c.Pattern.MatchString(raw) {
		res.Details = []string{fmt.Sprintf("%s=%q does not match the expected format", c.Field, raw)}
		return res
	}
	res.Passed, res.Score = true, 1
	return res
}

// EmailPattern is a pragmatic anchored email shape for AccuracyChecks.
var EmailPattern = regexp.MustCompile(`^[^@\s]+@[^@\s]+\.[^@\s]+$`)

// ConsistencyCheck verifies a cross-field predicate, realizing the
// Consistency characteristic ("free from contradiction").
type ConsistencyCheck struct {
	// Rule names the consistency rule for diagnostics.
	Rule string
	// Predicate returns true when the record is consistent.
	Predicate func(Record) bool
}

// Name returns "check_consistency".
func (ConsistencyCheck) Name() string { return "check_consistency" }

// Characteristic returns Consistency.
func (ConsistencyCheck) Characteristic() iso25012.Characteristic { return iso25012.Consistency }

// Apply evaluates the predicate.
func (c ConsistencyCheck) Apply(r Record) CheckResult {
	res := CheckResult{Check: c.Name(), Characteristic: c.Characteristic()}
	if c.Predicate == nil || c.Predicate(r) {
		res.Passed, res.Score = true, 1
		return res
	}
	res.Details = []string{"violates rule: " + c.Rule}
	return res
}

// DefaultMaxSkew is how far ahead of the clock a timestamp may sit before
// CurrentnessCheck and TimelinessCheck count it as future-dated.
const DefaultMaxSkew = 5 * time.Minute

// resolveSkew returns the future tolerance a MaxSkew field sets: 0 means
// DefaultMaxSkew, negative means none.
func resolveSkew(maxSkew time.Duration) time.Duration {
	if maxSkew == 0 {
		return DefaultMaxSkew
	}
	return max(maxSkew, 0)
}

// CurrentnessCheck verifies a timestamp field is recent enough, realizing
// the Currentness characteristic ("of the right age"). Timestamps ahead
// of the clock by more than MaxSkew fail too: a future event time is not
// "current", it is wrong.
type CurrentnessCheck struct {
	// Field holds an RFC 3339 timestamp.
	Field string
	// MaxAge is the oldest acceptable age.
	MaxAge time.Duration
	// MaxSkew tolerates timestamps this far in the future (clock drift
	// between writer and validator); 0 means DefaultMaxSkew, negative
	// means no tolerance.
	MaxSkew time.Duration
	// Now supplies the current time; time.Now when nil.
	Now func() time.Time
	// Optional passes blank values.
	Optional bool
}

// Name returns "check_currentness".
func (CurrentnessCheck) Name() string { return "check_currentness" }

// Characteristic returns Currentness.
func (CurrentnessCheck) Characteristic() iso25012.Characteristic { return iso25012.Currentness }

// Apply parses the timestamp and compares ages.
func (c CurrentnessCheck) Apply(r Record) CheckResult {
	res := CheckResult{Check: c.Name(), Characteristic: c.Characteristic()}
	raw := strings.TrimSpace(r[c.Field])
	if raw == "" {
		if c.Optional {
			res.Passed, res.Score = true, 1
			return res
		}
		res.Details = []string{c.Field + " is blank"}
		return res
	}
	if res.Details = c.judge(raw); res.Details == nil {
		res.Passed, res.Score = true, 1
	}
	return res
}

// judge returns why the non-blank timestamp raw fails, or nil when it
// passes. It reads the clock once per call.
func (c CurrentnessCheck) judge(raw string) []string {
	sec, nsec, ok := parseTimestamp(raw)
	if !ok {
		return []string{fmt.Sprintf("%s=%q is not an RFC3339 timestamp", c.Field, raw)}
	}
	now := time.Now
	if c.Now != nil {
		now = c.Now
	}
	age := now().Sub(time.Unix(sec, nsec))
	if skew := resolveSkew(c.MaxSkew); age < -skew {
		return []string{fmt.Sprintf("%s is %s in the future, tolerance %s", c.Field, -age, skew)}
	}
	if age > c.MaxAge {
		return []string{fmt.Sprintf("%s is %s old, limit %s", c.Field, age, c.MaxAge)}
	}
	return nil
}

// Validator executes a set of checks over records — the runtime counterpart
// of the model's «DQ_Validator» element.
type Validator struct {
	name   string
	checks []Check
}

// NewValidator creates a named validator.
func NewValidator(name string, checks ...Check) *Validator {
	return &Validator{name: name, checks: checks}
}

// Name returns the validator's name.
func (v *Validator) Name() string { return v.name }

// Add appends checks.
func (v *Validator) Add(checks ...Check) *Validator {
	v.checks = append(v.checks, checks...)
	return v
}

// Checks returns the checks in declaration order.
func (v *Validator) Checks() []Check { return append([]Check(nil), v.checks...) }

// Validate runs every check against the record.
func (v *Validator) Validate(r Record) *Report {
	rep := &Report{Validator: v.name}
	v.ValidateInto(r, rep)
	return rep
}

// ValidateInto runs every check against the record, writing the results
// into rep and reusing its Results storage. It is the allocation-cheap
// path for batch validation: a caller looping over millions of records
// keeps one Report per worker and pays no per-record slice growth once
// the capacity has warmed up (passing checks allocate nothing; failing
// checks still allocate their Details).
func (v *Validator) ValidateInto(r Record, rep *Report) {
	rep.Validator = v.name
	rep.Results = rep.Results[:0]
	for _, c := range v.checks {
		rep.Results = append(rep.Results, c.Apply(r))
	}
}

// ValidateObserved is ValidateInto with per-check attribution: observe is
// called once per check with the freshly appended result and the check's
// execution latency in seconds. It is the instrumented sibling of the
// batch hot path — callers that need no attribution should keep calling
// ValidateInto, which pays no clock reads.
func (v *Validator) ValidateObserved(r Record, rep *Report, observe func(res *CheckResult, seconds float64)) {
	if observe == nil {
		v.ValidateInto(r, rep)
		return
	}
	rep.Validator = v.name
	rep.Results = rep.Results[:0]
	for _, c := range v.checks {
		t0 := time.Now()
		rep.Results = append(rep.Results, c.Apply(r))
		observe(&rep.Results[len(rep.Results)-1], time.Since(t0).Seconds())
	}
}

// Report aggregates check results for one record.
type Report struct {
	// Validator is the producing validator's name.
	Validator string
	// Results holds one entry per check, in check order.
	Results []CheckResult
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, res := range r.Results {
		if !res.Passed {
			return false
		}
	}
	return true
}

// Failures returns the failing results.
func (r *Report) Failures() []CheckResult {
	var out []CheckResult
	for _, res := range r.Results {
		if !res.Passed {
			out = append(out, res)
		}
	}
	return out
}

// Scores aggregates measured levels per characteristic: the minimum score
// across that characteristic's checks (a record is only as good as its
// worst check), suitable for iso25012.DQModel.Assess.
func (r *Report) Scores() map[iso25012.Characteristic]float64 {
	out := map[iso25012.Characteristic]float64{}
	seen := map[iso25012.Characteristic]bool{}
	for _, res := range r.Results {
		if !seen[res.Characteristic] || res.Score < out[res.Characteristic] {
			out[res.Characteristic] = res.Score
		}
		seen[res.Characteristic] = true
	}
	return out
}
