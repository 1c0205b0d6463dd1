// Golden parity for cross-record checks: the same input must produce
// byte-identical reports — JSON and text — at Workers:1 and Workers:8,
// with the row oracle and the stock validator, duplicates, dangling keys and
// freshness findings included. The fixtures keep per-record failures under
// the exemplar cap so the whole report (not just the cross-record block)
// compares byte-for-byte across worker counts.
package dqbatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// crossNDJSON builds records with duplicate ids, foreign keys that dangle
// past the reference set, a timestamp mix (fresh, stale, future) and a
// couple of malformed lines; exactly two records miss the required field.
func crossNDJSON() string {
	var b strings.Builder
	for i := 0; i < 900; i++ {
		switch {
		case i%173 == 0:
			b.WriteString("{bad json\n")
		case i == 150 || i == 600:
			fmt.Fprintf(&b, `{"id": "gap-%d", "customer_id": "c1", "ts": "2026-08-08T06:00:00Z"}`+"\n", i)
		default:
			id := fmt.Sprintf("id-%d", i%800) // i and i+800 collide below 100
			cust := fmt.Sprintf("c%d", i%45)  // reference set holds c0..c39
			var ts string
			switch i % 7 {
			case 0:
				ts = "2025-01-01T00:00:00Z" // stale
			case 1:
				ts = "2026-09-01T00:00:00Z" // future-dated
			default:
				ts = fmt.Sprintf("2026-08-0%dT10:00:00Z", i%7)
			}
			fmt.Fprintf(&b, `{"a": "x%d", "id": %q, "customer_id": %q, "ts": %q}`+"\n", i, id, cust, ts)
		}
	}
	return b.String()
}

// refNDJSON is the reference dataset for the two-pass referential check;
// the malformed line must be skipped by BuildKeySet.
func refNDJSON() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `{"id": "c%d"}`+"\n", i)
	}
	b.WriteString("{bad json\n")
	return b.String()
}

// crossChecks assembles the three stateful checks the tentpole ships, with
// the referential reference set built by the real first pass.
func crossChecks(t *testing.T, maxExact int) []dqruntime.StatefulCheck {
	t.Helper()
	keys, err := BuildKeySet(context.Background(),
		NewNDJSONSource(strings.NewReader(refNDJSON())), []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 40 {
		t.Fatalf("reference key set has %d keys, want 40", len(keys))
	}
	asOf := func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	return []dqruntime.StatefulCheck{
		dqruntime.UniquenessCheck{Fields: []string{"id"}, MaxExact: maxExact, BloomBits: 1 << 14},
		dqruntime.ReferentialCheck{Fields: []string{"customer_id"}, Ref: keys, RefName: "customers"},
		dqruntime.TimelinessCheck{Field: "ts",
			Windows: []time.Duration{24 * time.Hour, 7 * 24 * time.Hour}, Now: asOf},
	}
}

// runCross executes one configuration and normalizes everything that may
// legitimately differ between configurations (timing, worker count).
// rowOracle scores the per-record checks through RowOracleForTest.
func runCross(t *testing.T, doc string, checks []dqruntime.StatefulCheck, workers int, rowOracle bool) *Result {
	t.Helper()
	v := dqruntime.NewValidator("cross", dqruntime.CompletenessCheck{Required: []string{"a"}})
	if rowOracle {
		v = RowOracleForTest(v)
	}
	res, err := Run(context.Background(), v, NewNDJSONSource(strings.NewReader(doc)), Options{
		Workers: workers, ChunkSize: 32,
		Registry: obs.NewRegistry(), CrossRecord: checks,
	})
	if err != nil {
		t.Fatal(err)
	}
	normalize(res)
	res.Workers = 0
	return res
}

// TestCrossRecordGoldenParity is the acceptance criterion: uniqueness +
// two-pass referential + timeliness report byte-identically across
// Workers:1 vs Workers:8 and row oracle vs stock validator.
func TestCrossRecordGoldenParity(t *testing.T) {
	doc := crossNDJSON()
	checks := crossChecks(t, 0)

	base := runCross(t, doc, checks, 1, true)
	if len(base.CrossRecords) != 3 {
		t.Fatalf("cross findings = %d, want 3", len(base.CrossRecords))
	}
	for _, f := range base.CrossRecords {
		if f.Records == 0 || f.Violations == 0 || f.Passed {
			t.Fatalf("degenerate fixture for %s: %+v", f.Check, f)
		}
		if f.Approximate {
			t.Fatalf("%s went approximate with default MaxExact: %+v", f.Check, f)
		}
		if len(f.Details) == 0 {
			t.Fatalf("%s has no details: %+v", f.Check, f)
		}
	}

	baseJSON, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var baseText bytes.Buffer
	base.WriteText(&baseText)

	for _, workers := range []int{1, 8} {
		for _, rowOracle := range []bool{true, false} {
			if workers == 1 && rowOracle {
				continue // the baseline itself
			}
			res := runCross(t, doc, checks, workers, rowOracle)
			gotJSON, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(baseJSON, gotJSON) {
				t.Fatalf("workers=%d rowOracle=%v JSON diverged from baseline:\nbase:\n%s\ngot:\n%s",
					workers, rowOracle, baseJSON, gotJSON)
			}
			var gotText bytes.Buffer
			res.WriteText(&gotText)
			if !bytes.Equal(baseText.Bytes(), gotText.Bytes()) {
				t.Fatalf("workers=%d rowOracle=%v text diverged:\nbase:\n%s\ngot:\n%s",
					workers, rowOracle, baseText.String(), gotText.String())
			}
		}
	}
}

// TestCrossRecordBloomParity repeats the 4-way byte identity with the
// uniqueness check forced into approximate mode.
func TestCrossRecordBloomParity(t *testing.T) {
	doc := crossNDJSON()
	checks := crossChecks(t, 16)

	base := runCross(t, doc, checks, 1, true)
	if !base.CrossRecords[0].Approximate {
		t.Fatalf("uniqueness stayed exact at MaxExact=16: %+v", base.CrossRecords[0])
	}
	baseJSON, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for _, rowOracle := range []bool{true, false} {
			res := runCross(t, doc, checks, workers, rowOracle)
			gotJSON, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(baseJSON, gotJSON) {
				t.Fatalf("workers=%d rowOracle=%v Bloom report diverged:\nbase:\n%s\ngot:\n%s",
					workers, rowOracle, baseJSON, gotJSON)
			}
		}
	}
}

// TestCrossFindingsAttributeQuality checks each finding lands in the
// windowed quality series as one dataset-level measurement of its
// characteristic.
func TestCrossFindingsAttributeQuality(t *testing.T) {
	quality := obs.NewSeriesSet(time.Minute, 4)
	v := dqruntime.NewValidator("cross", dqruntime.CompletenessCheck{Required: []string{"a"}})
	res, err := Run(context.Background(), v,
		NewNDJSONSource(strings.NewReader(crossNDJSON())), Options{
			Workers: 4, Registry: obs.NewRegistry(), Quality: quality, Context: "nightly",
			CrossRecord: crossChecks(t, 0),
		})
	if err != nil {
		t.Fatal(err)
	}
	rep := quality.Report("dq_score", 0)
	byChar := map[string]obs.SeriesSnapshot{}
	for _, s := range rep.Series {
		byChar[s.Labels["characteristic"]] = s
	}
	// Uniqueness + referential merge into consistency (2 measurements),
	// timeliness into currentness (1); neither characteristic has
	// per-record checks in this validator, so the counts are exactly the
	// finding counts.
	cons, ok := byChar["Consistency"]
	if !ok || cons.Current == nil || cons.Current.Count != 2 || cons.Current.Failures != 2 {
		t.Fatalf("consistency series = %+v", cons)
	}
	curr, ok := byChar["Currentness"]
	if !ok || curr.Current == nil || curr.Current.Count != 1 {
		t.Fatalf("currentness series = %+v", curr)
	}
	if want := res.CrossRecords[2].Score; curr.Current.Min != want || curr.Current.Max != want {
		t.Fatalf("currentness min/max = %g/%g, want finding score %g",
			curr.Current.Min, curr.Current.Max, want)
	}
}

// csvLinesDoc mixes quoted multi-line fields with malformed rows whose
// file lines are known.
const csvLinesDoc = "a,b\n" + // line 1: header
	"\"x\ny\",2\n" + // lines 2-3: one record with an embedded newline
	"only-one-field\n" + // line 4: field-count mismatch
	"p,q\n" + // line 5: ok
	"1,2,3\n" + // line 6: field-count mismatch
	"\"z\nw\",9\n" + // lines 7-8: ok
	"ab\"cd,x\n" // line 9: bare-quote parse error

// TestCSVDecodeErrorFileLines pins the line-number fix: quoted multi-line
// fields advance file lines without advancing record counts, and decode
// errors must point at true file lines with either validator.
func TestCSVDecodeErrorFileLines(t *testing.T) {
	doc := csvLinesDoc
	for _, rowOracle := range []bool{true, false} {
		v := dqruntime.NewValidator("csv", dqruntime.CompletenessCheck{Required: []string{"a"}})
		if rowOracle {
			v = RowOracleForTest(v)
		}
		res, err := Run(context.Background(), v, NewCSVSource(strings.NewReader(doc)),
			Options{Workers: 1, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != 3 || res.Malformed != 3 {
			t.Fatalf("rowOracle=%v: records=%d malformed=%d, want 3/3", rowOracle, res.Records, res.Malformed)
		}
		var lines []int64
		for _, de := range res.DecodeErrors {
			lines = append(lines, de.Line)
		}
		if len(lines) != 3 || lines[0] != 4 || lines[1] != 6 || lines[2] != 9 {
			t.Fatalf("rowOracle=%v: decode error lines = %v, want [4 6 9]", rowOracle, lines)
		}
	}
}

// TestBuildKeySetMatchesKeyOf: over random reference records, the set
// BuildKeySet folds from whole columns equals the set of KeyOf over each
// decoded row's RowView. The records leave fields absent, hold blank,
// NBSP and U+001F cells and a malformed line now and then, and the keys
// run over one to three fields, one of which may be in no record at all.
func TestBuildKeySetMatchesKeyOf(t *testing.T) {
	parts := []string{"", " ", "\u00a0", "x", "y", "é", "\x1f", "x\x1fy", "\x1f\x1f"}
	names := []string{"a", "b", "c", "absent"}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 40; round++ {
		var doc strings.Builder
		for i := rng.Intn(1500); i > 0; i-- {
			if rng.Intn(50) == 0 {
				doc.WriteString("{bad json\n")
				continue
			}
			rec := map[string]string{}
			for _, f := range names[:3] {
				if rng.Intn(4) > 0 {
					rec[f] = parts[rng.Intn(len(parts))] + strconv.Itoa(rng.Intn(1+rng.Intn(40)))
					if rng.Intn(3) == 0 {
						rec[f] = parts[rng.Intn(len(parts))]
					}
				}
			}
			line, _ := json.Marshal(rec)
			doc.Write(append(line, '\n'))
		}
		fields := make([]string, 1+rng.Intn(3))
		for i := range fields {
			fields[i] = names[rng.Intn(len(names))]
		}

		want := map[string]struct{}{}
		src := NewNDJSONSource(strings.NewReader(doc.String()))
		var buf []byte
		if sp, err := src.CutSpan(&buf, math.MaxInt); err == nil {
			var batch dqruntime.ColumnBatch
			src.DecodeSpan(sp, &batch, func(int64, error) {})
			for i := 0; i < batch.Rows(); i++ {
				want[dqruntime.KeyOf(fields, batch.RowView(i, dqruntime.Record{}))] = struct{}{}
			}
		}
		got, err := BuildKeySet(context.Background(), NewNDJSONSource(strings.NewReader(doc.String())), fields)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d, fields %q: BuildKeySet holds %d keys, KeyOf oracle %d", round, fields, len(got), len(want))
		}
	}
}
