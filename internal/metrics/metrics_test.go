package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// fakeClock is a deterministic, mutable clock for the score series.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func completenessMeasure() Measure {
	return Measure{
		Name:           "dq/Completeness",
		Characteristic: iso25012.Completeness,
		Scale:          Ratio,
		Unit:           "fraction",
	}
}

func TestRegisterValidation(t *testing.T) {
	c := NewCollector()
	if err := c.Register(Measure{Name: "", Characteristic: iso25012.Accuracy}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := c.Register(Measure{Name: "x", Characteristic: "Velocity"}); err == nil {
		t.Fatal("bad characteristic accepted")
	}
	m := completenessMeasure()
	if err := c.Register(m); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-registration.
	if err := c.Register(m); err != nil {
		t.Fatal(err)
	}
	// Conflicting redefinition rejected.
	m2 := m
	m2.Unit = "percent"
	if err := c.Register(m2); err == nil {
		t.Fatal("conflicting redefinition accepted")
	}
	if got := c.Measures(); len(got) != 1 || got[0].Name != "dq/Completeness" {
		t.Fatalf("measures = %v", got)
	}
}

// TestThresholdsAndViolations: a threshold judges the mean check score of
// its characteristic over the windows of the last hour, across contexts; a
// window ages out of that judgement by the clock alone.
func TestThresholdsAndViolations(t *testing.T) {
	clk := &fakeClock{t: time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)}
	c := NewCollector()
	c.Scores().SetClock(clk.Now)
	if err := c.Register(completenessMeasure()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddThreshold(Threshold{Measure: "ghost", MinMean: 0.5}); err == nil {
		t.Fatal("threshold on unregistered measure accepted")
	}
	if err := c.AddThreshold(Threshold{Measure: "dq/Completeness", MinMean: 0.9}); err != nil {
		t.Fatal(err)
	}
	// No data: no violation.
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("violations with no data = %v", vs)
	}
	series := func(context string) *obs.Series {
		return c.Scores().Series(obs.Labels{"characteristic": "Completeness", "context": context})
	}

	// One low-scoring window violates.
	series("reviewer").ObserveOutcome(0.3, true)
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Observed.Count != 1 || vs[0].Observed.Mean != 0.3 {
		t.Fatalf("violations = %v, want one with n=1 mean 0.3", vs)
	}
	if !strings.Contains(vs[0].String(), "below threshold") {
		t.Fatalf("violation string = %q", vs[0])
	}

	// Later good windows, in another context, dilute it: (0.3+1+1)/3.
	for i := 0; i < 2; i++ {
		clk.Advance(time.Minute)
		series("chair").Observe(1)
	}
	vs = c.Violations()
	if len(vs) != 1 || vs[0].Observed.Count != 3 || math.Abs(vs[0].Observed.Mean-2.3/3) > 1e-9 {
		t.Fatalf("violations = %v, want one with n=3 mean %.3f", vs, 2.3/3)
	}
	if vs[0].Observed.Min != 0.3 || vs[0].Observed.Max != 1 || vs[0].Observed.Failures != 1 {
		t.Fatalf("observed = %+v, want min 0.3, max 1, 1 failure", vs[0].Observed)
	}

	// 59 minutes on, the low window still counts.
	clk.Advance(57 * time.Minute)
	if vs := c.Violations(); len(vs) != 1 {
		t.Fatalf("violations 59m after the low window = %v, want it still judged", vs)
	}
	// Past 60 minutes it has aged out: no write needed for the clear.
	clk.Advance(90 * time.Second)
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("violations after the low window aged out = %v", vs)
	}
	if snap := c.Snapshot(); len(snap) != 1 || !strings.Contains(snap[0], "n=2 mean=1.000 min=1.000 max=1.000") {
		t.Fatalf("snapshot = %q, want the two good checks", snap)
	}

	// Once every window has aged out there is nothing to judge.
	clk.Advance(2 * time.Hour)
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("violations with only stale data = %v", vs)
	}
	if snap := c.Snapshot(); len(snap) != 1 || !strings.HasSuffix(snap[0], " n=0") {
		t.Fatalf("snapshot = %q, want n=0 and no mean", snap)
	}
}

// TestRecordReportIntegration: RecordReport folds a report in check by
// check, the way SeriesObserver records it, and registers the
// characteristics it meets.
func TestRecordReportIntegration(t *testing.T) {
	c := NewCollector()
	v := dqruntime.NewValidator("r",
		dqruntime.CompletenessCheck{Required: []string{"a", "b"}},
		dqruntime.PrecisionCheck{Field: "n", Lower: 0, Upper: 5},
		dqruntime.PrecisionCheck{Field: "m", Lower: 0, Upper: 5},
	)
	rep := v.Validate(dqruntime.Record{"a": "1", "n": "3", "m": "9"})
	if err := c.RecordReport(rep, "pc"); err != nil {
		t.Fatal(err)
	}
	if got := c.Measures(); len(got) != 2 || got[0].Name != "dq/Completeness" || got[1].Name != "dq/Precision" {
		t.Fatalf("measures = %v", got)
	}
	window := func(ch iso25012.Characteristic) obs.Window {
		t.Helper()
		w, ok := c.Scores().Series(obs.Labels{"characteristic": string(ch), "context": "pc"}).Current()
		if !ok {
			t.Fatalf("no %s series in context pc", ch)
		}
		return w
	}
	if w := window(iso25012.Precision); w.Count != 2 || w.Failures != 1 || w.Mean != 0.5 {
		t.Errorf("precision window = %+v, want count 2, 1 failure, mean 0.5", w)
	}
	if w := window(iso25012.Completeness); w.Count != 1 || w.Failures != 1 || w.Mean != 0.5 {
		t.Errorf("completeness window = %+v, want count 1, 1 failure, mean 0.5", w)
	}
	snap := c.Snapshot()
	if len(snap) != 2 || !strings.Contains(snap[0], "n=1 mean=0.500") || !strings.Contains(snap[1], "n=2 mean=0.500") {
		t.Fatalf("snapshot = %q", snap)
	}
}

func TestScaleString(t *testing.T) {
	for s, want := range map[Scale]string{Ratio: "ratio", Interval: "interval", Ordinal: "ordinal", Nominal: "nominal"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// TestConcurrentRecording folds reports while thresholds and snapshots
// read the same series; run under -race this verifies the locking story.
func TestConcurrentRecording(t *testing.T) {
	c := NewCollector()
	if err := c.RegisterCharacteristics(iso25012.Completeness, iso25012.Precision); err != nil {
		t.Fatal(err)
	}
	if err := c.AddThreshold(Threshold{Measure: MeasureNameFor(iso25012.Precision), MinMean: 0.8}); err != nil {
		t.Fatal(err)
	}
	v := dqruntime.NewValidator("r",
		dqruntime.CompletenessCheck{Required: []string{"a"}},
		dqruntime.PrecisionCheck{Field: "n", Lower: 0, Upper: 5},
	)
	reports := []*dqruntime.Report{
		v.Validate(dqruntime.Record{"a": "1", "n": "3"}),
		v.Validate(dqruntime.Record{"n": "9"}),
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := c.RecordReport(reports[j%2], []string{"pc", "chair"}[n%2]); err != nil {
					t.Error(err)
					return
				}
				c.Violations()
				c.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Observed.Count != 800 || vs[0].Observed.Failures != 400 {
		t.Fatalf("violations = %+v, want precision with 800 checks, 400 failures", vs)
	}
}
