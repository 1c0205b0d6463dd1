package dqwebre

import (
	"reflect"
	"testing"

	"github.com/modeldriven/dqwebre/internal/metamodel"
)

func TestParsePayload(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Payload
	}{
		{"lower_bound=-3", Payload{Kind: LowerBound, Bound: -3}},
		{"upper_bound=3", Payload{Kind: UpperBound, Bound: 3}},
		{"upper_bound=3abc", Payload{}},
		{"lower_bound=1_0", Payload{}},
		{"lower_bound= 3", Payload{}},
		{" score  in [5, 0]", Payload{Kind: FieldRange, Field: "score", Lo: 0, Hi: 5}},
		{"ocl=a <> 0", Payload{Kind: OCLPredicate, Expr: "a <> 0"}},
		{"ocl= x in [1,2]", Payload{Kind: OCLPredicate, Expr: " x in [1,2]"}},
		{"ocl=  ", Payload{}},
		{"scope=review", Payload{}},
		{"", Payload{}},
	} {
		if got := ParsePayload(tc.in); got != tc.want {
			t.Errorf("ParsePayload(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestFormatBoundRoundTrips checks that what DQR2DQSR writes, the codec
// reads back.
func TestFormatBoundRoundTrips(t *testing.T) {
	for _, k := range []PayloadKind{LowerBound, UpperBound} {
		for _, n := range []int64{-9223372036854775808, -3, 0, 42} {
			if got := ParsePayload(FormatBound(k, n)); got != (Payload{Kind: k, Bound: n}) {
				t.Errorf("ParsePayload(FormatBound(%v, %d)) = %+v", k, n, got)
			}
		}
	}
}

func TestReadConstraintData(t *testing.T) {
	payloads := []metamodel.Value{
		metamodel.String("upper_bound=-5"),
		metamodel.String("a in [0,9]"),
		metamodel.String("ocl=a <> 1"),
		metamodel.Int(7), // not a payload string
		metamodel.String("lower_bound=4"),
		metamodel.String("a in [3,1]"),
		metamodel.String("ocl="),
		metamodel.String("b in [x,1]"),
		metamodel.String("lower_bound=2"),
		metamodel.String("ocl=b > a"),
	}
	want := ConstraintData{
		Lower: -5, Upper: 2, HasBounds: true, // last bounds win, then swap
		Ranges: map[string][2]int64{"a": {1, 3}},
		OCL:    []string{"a <> 1", "b > a"},
	}
	if got := ReadConstraintData(payloads); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadConstraintData = %+v, want %+v", got, want)
	}
	if got := ReadConstraintData(nil); !reflect.DeepEqual(got, ConstraintData{Ranges: map[string][2]int64{}}) {
		t.Fatalf("ReadConstraintData(nil) = %+v", got)
	}
}
