package dqwebre

import (
	"strconv"
	"strings"

	"github.com/modeldriven/dqwebre/internal/metamodel"
)

// PayloadKind names a part of the DQConstraint payload grammar. DQR2DQSR
// carries a DQConstraint's bounds into a constraint component's attributes
// as "lower_bound=N" and "upper_bound=N", and its constraintData verbatim,
// where "field in [lo,hi]" ranges a field and "ocl=<expr>" is an OCL
// predicate over a record's fields. ParsePayload is the one reader of the
// grammar, so the enforcer, codegen and the design transform agree on
// what a payload means.
type PayloadKind string

// The payload kinds. A bound's or a predicate's kind is its key.
const (
	Unrecognised PayloadKind = ""
	LowerBound   PayloadKind = "lower_bound"
	UpperBound   PayloadKind = "upper_bound"
	FieldRange   PayloadKind = "range"
	OCLPredicate PayloadKind = "ocl"
)

// Payload is one payload string, read. A FieldRange has the trimmed Field
// and its inclusive bounds Lo <= Hi, a LowerBound or an UpperBound its
// Bound, and an OCLPredicate its Expr, as written.
type Payload struct {
	Kind          PayloadKind
	Field, Expr   string
	Lo, Hi, Bound int64
}

// ParsePayload reads one payload string; its prefix decides the kind, and
// a malformed payload is Unrecognised. Numbers parse with
// strconv.ParseInt, so "3abc", "1_0" and "1.5" are malformed. A range
// needs a non-blank field name, and a reversed one is swapped: a check
// that can never pass helps nobody. An "ocl=" needs a non-blank
// expression.
func ParsePayload(s string) Payload {
	if expr, ok := strings.CutPrefix(s, string(OCLPredicate)+"="); ok && strings.TrimSpace(expr) != "" {
		return Payload{Kind: OCLPredicate, Expr: expr}
	}
	for _, k := range [...]PayloadKind{LowerBound, UpperBound} {
		if v, ok := strings.CutPrefix(s, string(k)+"="); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				return Payload{Kind: k, Bound: n}
			}
			return Payload{}
		}
	}
	field, rest, ok := strings.Cut(s, " in [")
	rest, closed := strings.CutSuffix(rest, "]")
	lo, hi, comma := strings.Cut(rest, ",")
	field = strings.TrimSpace(field)
	if !ok || !closed || !comma || field == "" {
		return Payload{}
	}
	l, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	h, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
	if err1 != nil || err2 != nil {
		return Payload{}
	}
	return Payload{Kind: FieldRange, Field: field, Lo: min(l, h), Hi: max(l, h)}
}

// FormatBound writes a LowerBound or UpperBound payload.
func FormatBound(k PayloadKind, n int64) string {
	return string(k) + "=" + strconv.FormatInt(n, 10)
}

// ConstraintData is what a sequence of payloads says.
type ConstraintData struct {
	// Lower and Upper are the last lower and upper bound read, swapped
	// when reversed; a missing one is 0. HasBounds reports whether either
	// was read.
	Lower, Upper int64
	HasBounds    bool
	// Ranges holds each ranged field's last range.
	Ranges map[string][2]int64
	// OCL holds the predicates in order.
	OCL []string
}

// ReadConstraintData reads payloads in order, skipping unrecognised ones
// and values that are not strings.
func ReadConstraintData(payloads []metamodel.Value) ConstraintData {
	d := ConstraintData{Ranges: map[string][2]int64{}}
	for _, v := range payloads {
		s, _ := v.(metamodel.String)
		switch p := ParsePayload(string(s)); p.Kind {
		case LowerBound:
			d.Lower, d.HasBounds = p.Bound, true
		case UpperBound:
			d.Upper, d.HasBounds = p.Bound, true
		case FieldRange:
			d.Ranges[p.Field] = [2]int64{p.Lo, p.Hi}
		case OCLPredicate:
			d.OCL = append(d.OCL, p.Expr)
		}
	}
	if d.Lower > d.Upper {
		d.Lower, d.Upper = d.Upper, d.Lower
	}
	return d
}
