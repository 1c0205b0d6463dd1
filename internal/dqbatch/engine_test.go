package dqbatch_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	. "github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
	"github.com/modeldriven/dqwebre/internal/transform"
)

// buildValidator assembles the case-study enforcer's validator: one
// completeness check over five fields plus two bounded precision checks.
func buildValidator(t testing.TB) *dqruntime.Validator {
	t.Helper()
	e := easychair.MustBuildModel()
	dqsr, _, err := transform.RunDQR2DQSR(e.Model)
	if err != nil {
		t.Fatal(err)
	}
	enf, err := dqruntime.BuildFromDQSR(dqsr)
	if err != nil {
		t.Fatal(err)
	}
	return enf.Validator()
}

// goodRecord is a record every case-study check passes.
func goodRecord() dqruntime.Record {
	return dqruntime.Record{
		"first_name":          "Grace",
		"last_name":           "Hopper",
		"email_address":       "grace@navy.mil",
		"overall_evaluation":  "2",
		"reviewer_confidence": "3",
	}
}

// badRecord fails precision (evaluation outside [-3,3]).
func badRecord() dqruntime.Record {
	r := goodRecord()
	r["overall_evaluation"] = "7"
	return r
}

// recordSource serves records to the engine as an in-memory NDJSON
// document, one JSON object per record.
func recordSource(t testing.TB, recs []dqruntime.Record) Source {
	t.Helper()
	var doc []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		doc = append(append(doc, line...), '\n')
	}
	return NewMmapNDJSONSource(doc)
}

func TestRunOverRecords(t *testing.T) {
	v := buildValidator(t)
	var recs []dqruntime.Record
	for i := 0; i < 1000; i++ {
		if i%10 == 0 {
			recs = append(recs, badRecord())
		} else {
			recs = append(recs, goodRecord())
		}
	}
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), v, recordSource(t, recs), Options{
		Workers: 4, ChunkSize: 32, MaxExemplars: 2, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1000 || res.Passed != 900 || res.Failed != 100 {
		t.Fatalf("records/passed/failed = %d/%d/%d, want 1000/900/100",
			res.Records, res.Passed, res.Failed)
	}
	if res.Malformed != 0 {
		t.Fatalf("malformed = %d", res.Malformed)
	}
	if res.RecordsPerSec <= 0 || res.Seconds <= 0 {
		t.Fatalf("throughput not computed: %+v", res)
	}

	byChar := map[iso25012.Characteristic]CharacteristicStats{}
	for _, cs := range res.Characteristics {
		byChar[cs.Characteristic] = cs
	}
	comp, ok := byChar[iso25012.Completeness]
	if !ok || comp.Checks != 1000 || comp.Passed != 1000 || comp.MinScore != 1 {
		t.Fatalf("completeness stats = %+v", comp)
	}
	prec, ok := byChar[iso25012.Precision]
	if !ok {
		t.Fatal("no precision stats")
	}
	// Two precision checks per record; only the overall_evaluation one
	// fails on bad records.
	if prec.Checks != 2000 || prec.Passed != 1900 || prec.MinScore != 0 {
		t.Fatalf("precision stats = %+v", prec)
	}
	if prec.MeanScore <= 0.9 || prec.MeanScore >= 1 {
		t.Fatalf("precision mean = %v", prec.MeanScore)
	}
	if len(prec.Exemplars) != 2 {
		t.Fatalf("exemplars = %+v, want cap 2", prec.Exemplars)
	}
	for _, ex := range prec.Exemplars {
		if ex.Check != "check_precision" || len(ex.Details) == 0 {
			t.Fatalf("exemplar = %+v", ex)
		}
		if ex.Record < 1 || ex.Record > 1000 || (ex.Record-1)%10 != 0 {
			t.Fatalf("exemplar points at record %d, not a bad one", ex.Record)
		}
	}

	// Progress counters landed in the registry.
	if got := reg.Counter("dqbatch_records_total", "", obs.Labels{"outcome": "pass"}).Value(); got != 900 {
		t.Fatalf("pass counter = %d", got)
	}
	if got := reg.Counter("dqbatch_records_total", "", obs.Labels{"outcome": "fail"}).Value(); got != 100 {
		t.Fatalf("fail counter = %d", got)
	}
	if got := reg.Histogram("dqbatch_batch_seconds", "", nil, nil).Count(); got != 1 {
		t.Fatalf("batch histogram count = %d", got)
	}
}

func TestRunNDJSONSourceCountsMalformed(t *testing.T) {
	v := buildValidator(t)
	var b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, `{"first_name":"A","last_name":"B","email_address":"a@b.co","overall_evaluation":%d,"reviewer_confidence":3}`+"\n", i%3-1)
	}
	b.WriteString("this is not json\n")
	b.WriteString("\n") // blank lines are skipped, not malformed
	b.WriteString(`{"first_name":"A","nested":{"x":1}}` + "\n")
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader(b.String())), Options{
		Workers: 2, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 50 || res.Passed != 50 {
		t.Fatalf("records/passed = %d/%d, want 50/50", res.Records, res.Passed)
	}
	if res.Malformed != 2 {
		t.Fatalf("malformed = %d, want 2", res.Malformed)
	}
	if got := reg.Counter("dqbatch_records_total", "", obs.Labels{"outcome": "error"}).Value(); got != 2 {
		t.Fatalf("error counter = %d", got)
	}
}

func TestRunNDJSONScalarRendering(t *testing.T) {
	// Numbers and booleans arrive as the string a form would deliver.
	src := NewNDJSONSource(strings.NewReader(
		`{"score":-2,"ratio":1.5,"flag":true,"name":"x"}` + "\n"))
	var batch dqruntime.ColumnBatch
	n, err := src.NextBatch(&batch, 16, func(line int64, err error) { t.Fatalf("line %d: %v", line, err) })
	if n != 1 || err != nil {
		t.Fatalf("NextBatch = %d, %v; want 1 row", n, err)
	}
	rec := batch.RowView(0, dqruntime.Record{"stale": "gone"})
	want := dqruntime.Record{"score": "-2", "ratio": "1.5", "flag": "true", "name": "x"}
	if len(rec) != len(want) {
		t.Fatalf("rec = %v (stale keys must be cleared)", rec)
	}
	for k, v := range want {
		if rec[k] != v {
			t.Fatalf("rec[%q] = %q, want %q", k, rec[k], v)
		}
	}
}

func TestRunCSVSource(t *testing.T) {
	v := buildValidator(t)
	csv := "first_name,last_name,email_address,overall_evaluation,reviewer_confidence\n" +
		"Grace,Hopper,grace@navy.mil,2,3\n" +
		"Alan,Turing,alan@bletchley.uk,9,3\n" + // precision failure
		"short,row\n" + // malformed: wrong field count
		"Ada,Lovelace,ada@analytical.engine,-1,5\n"
	res, err := Run(context.Background(), v, NewCSVSource(strings.NewReader(csv)), Options{
		Workers: 2, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 3 || res.Passed != 2 || res.Failed != 1 || res.Malformed != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunEmptyInput(t *testing.T) {
	v := buildValidator(t)
	res, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader("")), Options{
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || len(res.Characteristics) != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestResultWriteTextAndJSONShape(t *testing.T) {
	v := buildValidator(t)
	res, err := Run(context.Background(), v,
		recordSource(t, []dqruntime.Record{goodRecord(), badRecord()}),
		Options{Workers: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	res.WriteText(&b)
	out := b.String()
	for _, want := range []string{"2 records", "passed 1, failed 1", "Precision", "check_precision"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}
