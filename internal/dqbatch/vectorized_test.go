// Golden parity for the columnar pipeline: running the same input
// through Run with the row oracle (RowOracleForTest: every check scored
// through Apply on a RowView record map) and with the stock validator
// (Workers:1) must produce byte-identical reports — same counts, scores,
// exemplar order and detail text, same decode errors with the same line
// numbers — for both NDJSON and CSV, malformed lines included. Timing
// fields are zeroed before comparison; everything else must match exactly.
package dqbatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
)

func parityValidator(t testing.TB) *dqruntime.Validator {
	t.Helper()
	oclChk, err := dqruntime.NewOCLCheck(iso25012.Consistency,
		"n.oclIsUndefined() or opt.oclIsUndefined() or n <= opt")
	if err != nil {
		t.Fatal(err)
	}
	fixedNow := func() time.Time {
		return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	}
	return dqruntime.NewValidator("parity",
		dqruntime.CompletenessCheck{Required: []string{"a", "b"}},
		dqruntime.PrecisionCheck{Field: "n", Lower: -3, Upper: 3},
		dqruntime.AccuracyCheck{Field: "email", Pattern: dqruntime.EmailPattern},
		dqruntime.CurrentnessCheck{Field: "ts", MaxAge: 365 * 24 * time.Hour, Now: fixedNow},
		// No vectorized path: exercises the RowView fallback inside the
		// otherwise-columnar pipeline.
		dqruntime.ConsistencyCheck{Rule: "a differs from b", Predicate: func(r dqruntime.Record) bool {
			return r["a"] != r["b"] || r["a"] == ""
		}},
		oclChk,
	)
}

// rowOnly hides a check's ApplyBatch, so Validator.ValidateBatch scores
// it through Apply on a RowView record map, as it does ConsistencyCheck.
type rowOnly struct{ dqruntime.Check }

// RowOracleForTest returns a validator with v's name whose every check is
// scored row by row through Apply: the slow oracle the parity tests hold
// the vectorized checks to.
func RowOracleForTest(v *dqruntime.Validator) *dqruntime.Validator {
	var checks []dqruntime.Check
	for _, c := range v.Checks() {
		checks = append(checks, rowOnly{c})
	}
	return dqruntime.NewValidator(v.Name(), checks...)
}

// parityNDJSON builds an NDJSON document with passing rows, failing rows,
// blank lines and malformed lines (bad JSON, null values, nested values).
func parityNDJSON() string {
	var b strings.Builder
	for i := 0; i < 700; i++ {
		switch {
		case i%97 == 0:
			b.WriteString("{bad json\n") // undecodable line
		case i%61 == 0:
			b.WriteString(`{"a": "x", "n": null}` + "\n") // null field value
		case i%53 == 0:
			b.WriteString(`{"a": {"nested": 1}}` + "\n") // non-scalar field
		case i%31 == 0:
			b.WriteString("\n") // blank line, skipped silently
		default:
			fmt.Fprintf(&b, `{"a": "v%d", "b": "w%d", "n": "%d", "opt": "%d", "email": "u%d@example.org", "ts": "2026-0%d-01T00:00:00Z"}`+"\n",
				i, i%7, i%9-4, i%6, i, i%9+1)
		}
	}
	return b.String()
}

// parityCSV builds a CSV document with a header, valid rows and rows with
// the wrong field count.
func parityCSV() string {
	var b strings.Builder
	b.WriteString("a,b,n,opt,email,ts\n")
	for i := 0; i < 500; i++ {
		switch {
		case i%89 == 0:
			fmt.Fprintf(&b, "only,three,fields\n") // field-count mismatch
		default:
			fmt.Fprintf(&b, "v%d,w%d,%d,%d,u%d@example.org,2026-0%d-01T00:00:00Z\n",
				i, i%7, i%9-4, i%6, i, i%9+1)
		}
	}
	return b.String()
}

// normalize zeroes the timing-dependent fields so reports compare on
// content alone.
func normalize(r *Result) {
	r.Seconds = 0
	r.RecordsPerSec = 0
	r.LatencyP50 = 0
	r.LatencyP99 = 0
	r.Duration = 0
}

// runParity runs the row oracle and the stock validator over the same
// input and returns the normalized results.
func runParity(t *testing.T, mkSource func() Source) (row, vec *Result) {
	t.Helper()
	v := parityValidator(t)
	opts := Options{Workers: 1, ChunkSize: 64, Registry: obs.NewRegistry()}

	row, err := Run(context.Background(), RowOracleForTest(v), mkSource(), opts)
	if err != nil {
		t.Fatalf("row path: %v", err)
	}

	vec, err = Run(context.Background(), v, mkSource(), opts)
	if err != nil {
		t.Fatalf("vectorized path: %v", err)
	}
	normalize(row)
	normalize(vec)
	return row, vec
}

func assertIdenticalReports(t *testing.T, row, vec *Result) {
	t.Helper()
	rowJSON, err := json.MarshalIndent(row, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	vecJSON, err := json.MarshalIndent(vec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rowJSON, vecJSON) {
		t.Fatalf("JSON reports diverged\nrow path:\n%s\nvectorized:\n%s", rowJSON, vecJSON)
	}
	var rowText, vecText bytes.Buffer
	row.WriteText(&rowText)
	vec.WriteText(&vecText)
	if !bytes.Equal(rowText.Bytes(), vecText.Bytes()) {
		t.Fatalf("text reports diverged\nrow path:\n%s\nvectorized:\n%s", rowText.String(), vecText.String())
	}
}

func TestRunParityNDJSON(t *testing.T) {
	doc := parityNDJSON()
	row, vec := runParity(t, func() Source { return NewNDJSONSource(strings.NewReader(doc)) })
	if row.Records == 0 || row.Failed == 0 || row.Malformed == 0 {
		t.Fatalf("degenerate fixture: %+v", row)
	}
	if len(row.DecodeErrors) == 0 {
		t.Fatal("fixture produced no decode errors")
	}
	assertIdenticalReports(t, row, vec)
}

func TestRunParityCSV(t *testing.T) {
	doc := parityCSV()
	row, vec := runParity(t, func() Source { return NewCSVSource(strings.NewReader(doc)) })
	if row.Records == 0 || row.Malformed == 0 {
		t.Fatalf("degenerate fixture: %+v", row)
	}
	assertIdenticalReports(t, row, vec)
}

// TestDecodeErrorLines pins the decode-error capture: line numbers point
// at the malformed input lines, the cap applies, and Malformed counts
// every skipped record regardless.
func TestDecodeErrorLines(t *testing.T) {
	doc := "{\"a\": \"1\"}\n{bad\n\n{\"a\": null}\n{worse\n"
	for _, rowOracle := range []bool{true, false} {
		v := parityValidator(t)
		if rowOracle {
			v = RowOracleForTest(v)
		}
		res, err := Run(context.Background(), v,
			NewNDJSONSource(strings.NewReader(doc)),
			Options{Workers: 1, MaxDecodeErrors: 2, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != 1 || res.Malformed != 3 {
			t.Fatalf("rowOracle=%v: records=%d malformed=%d, want 1/3", rowOracle, res.Records, res.Malformed)
		}
		if len(res.DecodeErrors) != 2 {
			t.Fatalf("rowOracle=%v: %d decode errors retained, want 2 (cap)", rowOracle, len(res.DecodeErrors))
		}
		if res.DecodeErrors[0].Line != 2 || res.DecodeErrors[1].Line != 4 {
			t.Fatalf("rowOracle=%v: decode error lines %d,%d, want 2,4",
				rowOracle, res.DecodeErrors[0].Line, res.DecodeErrors[1].Line)
		}
		if res.DecodeErrors[0].Error == "" {
			t.Fatalf("rowOracle=%v: empty decode error text", rowOracle)
		}
	}
	// Negative cap retains nothing but still counts.
	res, err := Run(context.Background(), parityValidator(t),
		NewNDJSONSource(strings.NewReader(doc)),
		Options{Workers: 1, MaxDecodeErrors: -1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Malformed != 3 || len(res.DecodeErrors) != 0 {
		t.Fatalf("negative cap: malformed=%d retained=%d", res.Malformed, len(res.DecodeErrors))
	}
}

// TestRunCancelledKeepsPartialReport checks a cancelled run still returns
// the partial result (the SIGINT path the CLI prints), with the context
// error alongside.
func TestRunCancelledKeepsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, parityValidator(t),
		NewNDJSONSource(strings.NewReader(parityNDJSON())),
		Options{Workers: 2, Registry: obs.NewRegistry()})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
}

// TestRunVectorizedWorkers runs the columnar path with several workers
// under load: exact counters must match the sequential row oracle even
// though chunk assignment is nondeterministic.
func TestRunVectorizedWorkers(t *testing.T) {
	doc := parityNDJSON()
	v := parityValidator(t)
	seq, err := Run(context.Background(), RowOracleForTest(v), NewNDJSONSource(strings.NewReader(doc)),
		Options{Workers: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader(doc)),
		Options{Workers: 4, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if par.Records != seq.Records || par.Passed != seq.Passed ||
		par.Failed != seq.Failed || par.Malformed != seq.Malformed {
		t.Fatalf("counters diverged: seq %+v, par %+v", seq, par)
	}
	if len(par.Characteristics) != len(seq.Characteristics) {
		t.Fatalf("characteristics: %d vs %d", len(par.Characteristics), len(seq.Characteristics))
	}
	for i := range par.Characteristics {
		p, s := par.Characteristics[i], seq.Characteristics[i]
		if p.Characteristic != s.Characteristic || p.Checks != s.Checks || p.Passed != s.Passed ||
			p.MinScore != s.MinScore || p.MaxScore != s.MaxScore {
			t.Fatalf("characteristic %d diverged: %+v vs %+v", i, p, s)
		}
	}
}

// TestExemplarTiesKeepCheckOrder pins exemplar order when one record fails
// two checks of one characteristic: at any worker count the record's
// exemplars keep the checks' declaration order, as one worker retains
// them. Eight workers pool up to 24 exemplars per characteristic, past
// the size up to which an unstable sort happens to keep equal keys in
// place.
func TestExemplarTiesKeepCheckOrder(t *testing.T) {
	var b strings.Builder
	b.WriteString("a,b,n,opt\n")
	for i := 0; i < 400; i++ {
		// a == b fails ConsistencyCheck and n > opt the OCL check, and
		// both measure Consistency.
		fmt.Fprintf(&b, "x%d,x%d,3,1\n", i, i)
	}
	doc := b.String()
	v := parityValidator(t)
	run := func(workers int) *Result {
		res, err := Run(context.Background(), v, NewCSVSource(strings.NewReader(doc)),
			Options{Workers: workers, ChunkSize: 1, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		normalize(res)
		res.Workers = 0
		return res
	}
	want := run(1)
	for i := 0; i < 20; i++ {
		assertIdenticalReports(t, want, run(8))
	}
}
