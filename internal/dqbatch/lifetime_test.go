// Lifetime oracle for cells that view their chunk's span: poisonSource
// overwrites a span buffer's whole capacity before every cut, so a cell
// kept past its chunk reads poison instead of its value. A run through it
// must report byte-identically to the same run without it.
package dqbatch

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// poisonSource fills all of *buf's capacity with 0xff before each cut,
// then cuts through the wrapped Source: a cell that still views an
// earlier span cut into the same buffer reads the poison.
type poisonSource struct{ Source }

func (p poisonSource) CutSpan(buf *[]byte, maxLines int) (Span, error) {
	b := (*buf)[:cap(*buf)]
	for i := range b {
		b[i] = 0xff
	}
	return p.Source.CutSpan(buf, maxLines)
}

// quoteCheck fails every record and quotes its customer_id cell verbatim
// in its details, as a user's row check may: it keeps the string RowView
// handed it.
type quoteCheck struct{}

func (quoteCheck) Name() string                            { return "check_quote" }
func (quoteCheck) Characteristic() iso25012.Characteristic { return iso25012.Credibility }
func (c quoteCheck) Apply(r dqruntime.Record) dqruntime.CheckResult {
	return dqruntime.CheckResult{Check: c.Name(), Characteristic: c.Characteristic(),
		Details: []string{r["customer_id"]}}
}

// lifetimeNDJSON is crossNDJSON followed by records whose dangling keys
// arrive in descending order, each below every key the referential tally
// holds, so each one evicts the largest.
func lifetimeNDJSON() string {
	var b strings.Builder
	b.WriteString(crossNDJSON())
	for i := 59; i >= 0; i-- {
		fmt.Fprintf(&b, `{"a": "%d", "id": "late-%d", "customer_id": "b%02d", "ts": "2026-08-08T06:00:00Z"}`+"\n", i%12, i, i)
	}
	return b.String()
}

// TestPoisonedSpansReportIdentically runs uniqueness, a referential check
// over a reference set BuildKeySet read, timeliness and checks whose
// details quote cell values, four records a chunk, through poisonSource
// and without it: at 1 and 8 workers, with the stock validator and the
// row oracle, the reports must be byte-identical.
func TestPoisonedSpansReportIdentically(t *testing.T) {
	doc := lifetimeNDJSON()
	asOf := func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	run := func(wrap func(Source) Source, workers int, rowOracle bool) *Result {
		t.Helper()
		keys, err := BuildKeySet(context.Background(),
			wrap(NewNDJSONSource(strings.NewReader(refNDJSON()))), []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		v := dqruntime.NewValidator("lifetime",
			dqruntime.CompletenessCheck{Required: []string{"a"}},
			dqruntime.PrecisionCheck{Field: "a", Lower: 0, Upper: 9},
			dqruntime.AccuracyCheck{Field: "id", Pattern: dqruntime.EmailPattern},
			quoteCheck{})
		if rowOracle {
			v = RowOracleForTest(v)
		}
		res, err := Run(context.Background(), v, wrap(NewNDJSONSource(strings.NewReader(doc))), Options{
			Workers: workers, ChunkSize: 4, Registry: obs.NewRegistry(),
			CrossRecord: []dqruntime.StatefulCheck{
				dqruntime.UniquenessCheck{Fields: []string{"id"}},
				dqruntime.ReferentialCheck{Fields: []string{"customer_id"}, Ref: keys, RefName: "customers"},
				dqruntime.TimelinessCheck{Field: "ts", Windows: []time.Duration{24 * time.Hour}, Now: asOf},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		normalize(res)
		return res
	}
	plain := func(s Source) Source { return s }
	poisoned := func(s Source) Source { return poisonSource{s} }
	for _, workers := range []int{1, 8} {
		for _, rowOracle := range []bool{false, true} {
			want := run(plain, workers, rowOracle)
			refDetails := strings.Join(want.CrossRecords[1].Details, "\n")
			for _, key := range []string{`"b00"`, `"b01"`, `"b02"`} {
				if !strings.Contains(refDetails, key) {
					t.Fatalf("workers=%d rowOracle=%v: referential details lack %s:\n%s", workers, rowOracle, key, refDetails)
				}
			}
			assertIdenticalReports(t, want, run(poisoned, workers, rowOracle))
		}
	}
}
