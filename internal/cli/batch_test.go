package cli

import (
	"encoding/json"
	"flag"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/dqserve"
	"github.com/modeldriven/dqwebre/internal/easychair"
	"github.com/modeldriven/dqwebre/internal/xmi"
)

// writeDemoModel marshals the case-study requirements model (a DQR model:
// the batch command must transform it before enforcing).
func writeDemoModel(t *testing.T, dir string) string {
	t.Helper()
	e, err := easychair.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	data, err := xmi.Marshal(e.Model.Model)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "easychair.xml")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdBatchNDJSONJSONReport(t *testing.T) {
	dir := t.TempDir()
	model := writeDemoModel(t, dir)
	records := filepath.Join(dir, "records.ndjson")
	ndjson := strings.Repeat(`{"first_name":"G","last_name":"H","email_address":"g@h.io","overall_evaluation":2,"reviewer_confidence":3}`+"\n", 40) +
		`{"first_name":"G","last_name":"H","email_address":"g@h.io","overall_evaluation":9,"reviewer_confidence":3}` + "\n" +
		"not json\n"
	if err := os.WriteFile(records, []byte(ndjson), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	err := Run([]string{"batch", "-model", model, "-in", records, "-workers", "3", "-report", "json"}, &out)
	if err != nil {
		t.Fatalf("batch: %v\n%s", err, out.String())
	}
	var res struct {
		Records   int64 `json:"records"`
		Passed    int64 `json:"passed"`
		Failed    int64 `json:"failed"`
		Malformed int64 `json:"malformed"`
		Workers   int   `json:"workers"`
		Chars     []struct {
			Characteristic string `json:"characteristic"`
		} `json:"characteristics"`
	}
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if res.Records != 41 || res.Passed != 40 || res.Failed != 1 || res.Malformed != 1 {
		t.Fatalf("report = %+v", res)
	}
	if res.Workers != 3 || len(res.Chars) == 0 {
		t.Fatalf("report = %+v", res)
	}
}

func TestCmdBatchCSVTextReport(t *testing.T) {
	dir := t.TempDir()
	model := writeDemoModel(t, dir)
	records := filepath.Join(dir, "records.csv")
	csv := "first_name,last_name,email_address,overall_evaluation,reviewer_confidence\n" +
		"Grace,Hopper,grace@navy.mil,2,3\n" +
		"Alan,Turing,alan@bletchley.uk,9,3\n"
	if err := os.WriteFile(records, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := Run([]string{"batch", "-model", model, "-in", records}, &out); err != nil {
		t.Fatalf("batch: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"2 records", "passed 1, failed 1", "check_precision"} {
		if !strings.Contains(got, want) {
			t.Fatalf("text report missing %q:\n%s", want, got)
		}
	}
}

func TestCmdBatchFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := Run([]string{"batch"}, &out); err == nil {
		t.Fatal("missing -model/-in must error")
	}
	if err := Run([]string{"batch", "-model", "x", "-in", "y", "-report", "xml"}, &out); err == nil {
		t.Fatal("unknown report format must error")
	}
	if err := Run([]string{"batch", "-model", "x", "-in", "y", "-format", "tsv"}, &out); err == nil ||
		!strings.Contains(err.Error(), "unknown record format") {
		t.Fatalf("unknown record format: err = %v", err)
	}
}

// TestCmdBatchCrossRecordChecks drives the cross-record flags end to end:
// -unique, the two-pass -ref/-ref-key/-ref-field referential check, and
// -timeliness, all surfaced in the JSON report's cross_records block.
func TestCmdBatchCrossRecordChecks(t *testing.T) {
	dir := t.TempDir()
	model := writeDemoModel(t, dir)
	records := filepath.Join(dir, "records.ndjson")
	ndjson := `{"first_name":"G","last_name":"H","email_address":"g@h.io","overall_evaluation":2,"reviewer_confidence":3,"id":"r1","track":"t1","submitted":"2026-01-01T00:00:00Z"}` + "\n" +
		`{"first_name":"A","last_name":"T","email_address":"a@t.io","overall_evaluation":1,"reviewer_confidence":2,"id":"r2","track":"t9","submitted":"1999-01-01T00:00:00Z"}` + "\n" +
		`{"first_name":"B","last_name":"L","email_address":"b@l.io","overall_evaluation":0,"reviewer_confidence":1,"id":"r1","track":"t2","submitted":"not-a-date"}` + "\n"
	if err := os.WriteFile(records, []byte(ndjson), 0o644); err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(dir, "tracks.ndjson")
	if err := os.WriteFile(ref, []byte(`{"id":"t1"}`+"\n"+`{"id":"t2"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	err := Run([]string{"batch", "-model", model, "-in", records, "-report", "json",
		"-unique", "id",
		"-ref", ref, "-ref-key", "id", "-ref-field", "track",
		// The clock is real here, so the bounds are generous: the 1999
		// record stays stale and the 2026 record stays within -max-age for
		// decades either way.
		"-timeliness", "submitted", "-windows", "720h,8760h", "-max-age", "175200h"}, &out)
	if err != nil {
		t.Fatalf("batch: %v\n%s", err, out.String())
	}
	var res struct {
		Records int64 `json:"records"`
		Cross   []struct {
			Check      string `json:"check"`
			Records    int64  `json:"records"`
			Violations int64  `json:"violations"`
			Passed     bool   `json:"passed"`
		} `json:"cross_records"`
	}
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if res.Records != 3 || len(res.Cross) != 3 {
		t.Fatalf("report = %+v", res)
	}
	// Duplicate id r1, dangling track t9, one stale + one unparsable
	// timestamp.
	for i, want := range []struct {
		check      string
		violations int64
	}{
		{"check_uniqueness", 1},
		{"check_referential", 1},
		{"check_timeliness", 2},
	} {
		got := res.Cross[i]
		if got.Check != want.check || got.Violations != want.violations || got.Passed {
			t.Fatalf("cross finding %d = %+v, want %s with %d violations", i, got, want.check, want.violations)
		}
	}

	// -ref without -ref-key is a usage error.
	if err := Run([]string{"batch", "-model", model, "-in", records, "-ref", ref}, &out); err == nil {
		t.Fatal("-ref without -ref-key accepted")
	}
}

// TestCrossFlagsMatchJobQuery: the same textual options, spelled as
// `dqwebre batch` flags and as a dqserve job query, build equal
// cross-record checks — an empty window list meaning the default windows
// on both sides.
func TestCrossFlagsMatchJobQuery(t *testing.T) {
	cases := []struct {
		flags []string
		query string
	}{
		{nil, ""},
		{[]string{"-unique", "email_address, paper_id", "-unique-max-exact", "64"},
			"unique=email_address,paper_id&unique_max_exact=64"},
		{[]string{"-timeliness", "submitted_at"}, "timeliness=submitted_at"},
		{[]string{"-timeliness", "submitted_at", "-windows", ""}, "timeliness=submitted_at&windows="},
		{[]string{"-timeliness", "ts", "-windows", "1h, 30m", "-max-age", "720h", "-max-skew", "1m"},
			"timeliness=ts&windows=1h,30m&max_age=720h&max_skew=1m"},
		{[]string{"-unique", "id", "-timeliness", "ts", "-max-skew", "-1s"}, "unique=id&timeliness=ts&max_skew=-1s"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("batch", flag.ContinueOnError)
		crossOpts := crossFlags(fs)
		if err := fs.Parse(c.flags); err != nil {
			t.Fatal(err)
		}
		fromFlags, err := crossOpts().Checks()
		if err != nil {
			t.Fatalf("%q: %v", c.flags, err)
		}
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		jo, err := dqserve.ParseJobOptions(q)
		if err != nil {
			t.Fatalf("%q: %v", c.query, err)
		}
		fromQuery, err := jo.Checks()
		if err != nil {
			t.Fatalf("%q: %v", c.query, err)
		}
		if !reflect.DeepEqual(fromFlags, fromQuery) {
			t.Errorf("flags %q build %+v, query %q builds %+v", c.flags, fromFlags, c.query, fromQuery)
		}
		for _, sc := range fromFlags {
			if tc, ok := sc.(dqruntime.TimelinessCheck); ok && strings.HasPrefix(c.query, "timeliness=submitted_at") &&
				!reflect.DeepEqual(tc.Windows, []time.Duration{24 * time.Hour, 168 * time.Hour}) {
				t.Errorf("%q: windows %v, want the default 24h, 168h", c.flags, tc.Windows)
			}
		}
	}
}
