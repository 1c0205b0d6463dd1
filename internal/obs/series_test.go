package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// seriesClock is a deterministic, mutable clock for series tests.
type seriesClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *seriesClock {
	return &seriesClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *seriesClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *seriesClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestSeriesWindowAggregation(t *testing.T) {
	clk := newFakeClock()
	s := NewSeries(time.Minute, 5)
	s.SetClock(clk.Now)

	s.Observe(1)
	s.ObserveOutcome(0.5, true)
	s.Observe(0.9)

	cur, ok := s.Current()
	if !ok {
		t.Fatal("current window missing")
	}
	if cur.Count != 3 || cur.Failures != 1 {
		t.Errorf("count/failures = %d/%d, want 3/1", cur.Count, cur.Failures)
	}
	if cur.Min != 0.5 || cur.Max != 1 {
		t.Errorf("min/max = %g/%g, want 0.5/1", cur.Min, cur.Max)
	}
	if want := 2.4 / 3; math.Abs(cur.Mean-want) > 1e-9 {
		t.Errorf("mean = %g, want %g", cur.Mean, want)
	}
	if _, ok := s.Previous(); ok {
		t.Error("previous window should not exist yet")
	}
}

func TestSeriesDeltaAndWindowAdvance(t *testing.T) {
	clk := newFakeClock()
	s := NewSeries(time.Minute, 5)
	s.SetClock(clk.Now)

	s.Observe(0.8)
	s.Observe(0.8)
	clk.Advance(time.Minute)
	s.Observe(0.9)

	delta, ok := s.Delta()
	if !ok {
		t.Fatal("delta should be derivable with two populated windows")
	}
	if math.Abs(delta-0.1) > 1e-9 {
		t.Errorf("delta = %g, want 0.1", delta)
	}
	prev, ok := s.Previous()
	if !ok || prev.Count != 2 {
		t.Errorf("previous = %+v ok=%v, want count 2", prev, ok)
	}

	// An empty current window (time moved on, nothing observed) kills both
	// Current and Delta.
	clk.Advance(time.Minute)
	if _, ok := s.Current(); ok {
		t.Error("current window should be missing after silent advance")
	}
	if _, ok := s.Delta(); ok {
		t.Error("delta should not be derivable without a current window")
	}
}

func TestSeriesRingEvictionAndBigJump(t *testing.T) {
	clk := newFakeClock()
	s := NewSeries(time.Minute, 3)
	s.SetClock(clk.Now)

	for i := 0; i < 5; i++ {
		if i > 0 {
			clk.Advance(time.Minute)
		}
		s.Observe(float64(i))
	}
	// 5 windows observed, capacity 3: the ring keeps the newest 3.
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d windows, want 3", len(snap))
	}
	if snap[0].Sum != 2 || snap[2].Sum != 4 {
		t.Errorf("oldest/newest sums = %g/%g, want 2/4", snap[0].Sum, snap[2].Sum)
	}
	for i := 1; i < len(snap); i++ {
		if !snap[i].Start.After(snap[i-1].Start) {
			t.Errorf("windows out of order: %v then %v", snap[i-1].Start, snap[i].Start)
		}
	}

	// A jump longer than the whole ring resets it.
	clk.Advance(time.Hour)
	s.Observe(7)
	snap = s.Snapshot()
	if len(snap) != 1 || snap[0].Sum != 7 {
		t.Fatalf("after big jump: snapshot = %+v, want single window sum 7", snap)
	}
}

// TestSeriesStaleWindowsAgeOut: windows older than the ring's span of now
// drop out of every read — Snapshot, EWMA, Report and WritePrometheus —
// even when no write has advanced the ring past them.
func TestSeriesStaleWindowsAgeOut(t *testing.T) {
	clk := newFakeClock()
	ss := NewSeriesSet(time.Minute, 60)
	ss.SetClock(clk.Now)
	labels := Labels{"characteristic": "Completeness", "context": "reviewer"}
	s := ss.Series(labels)
	s.Observe(0.1)
	clk.Advance(3 * time.Hour)

	if snap := s.Snapshot(); len(snap) != 0 {
		t.Errorf("snapshot = %+v, want no windows 3h after the only observation", snap)
	}
	if ewma, ok := s.EWMA(0); ok {
		t.Errorf("EWMA = %g, want not ok", ewma)
	}
	rep := ss.Report("dq_score", 0)
	if len(rep.Series) != 1 || len(rep.Series[0].Windows) != 0 || rep.Series[0].EWMA != nil {
		t.Errorf("report = %+v, want one series without windows or ewma", rep)
	}
	if text := scrapeSet(t, ss); !strings.Contains(text,
		`dq_score_trend{characteristic="Completeness",context="reviewer",stat="ewma"} NaN`) {
		t.Errorf("stale ewma not NaN:\n%s", text)
	}
}

func TestSeriesEWMA(t *testing.T) {
	clk := newFakeClock()
	s := NewSeries(time.Minute, 8)
	s.SetClock(clk.Now)

	if _, ok := s.EWMA(0.5); ok {
		t.Error("EWMA on an empty series should not be ok")
	}
	for _, mean := range []float64{1, 0.5, 0.25} {
		s.Observe(mean)
		clk.Advance(time.Minute)
	}
	got, ok := s.EWMA(0.5)
	if !ok {
		t.Fatal("EWMA should be derivable")
	}
	// Seeded with 1, then 0.5*0.5+0.5*1 = 0.75, then 0.5*0.25+0.5*0.75.
	if want := 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("EWMA = %g, want %g", got, want)
	}
	// Out-of-range alpha falls back to the default instead of misbehaving.
	if _, ok := s.EWMA(42); !ok {
		t.Error("EWMA with out-of-range alpha should still derive")
	}
}

func TestSeriesMergeAndNonFiniteDropped(t *testing.T) {
	s := NewSeries(time.Minute, 4)
	s.Merge(10, 2, 8.5, 0.1, 1)
	s.Merge(0, 5, 100, 0, 0) // count 0: dropped entirely
	s.Observe(math.NaN())
	s.Observe(math.Inf(1))
	cur, ok := s.Current()
	if !ok {
		t.Fatal("current window missing")
	}
	if cur.Count != 10 || cur.Failures != 2 || cur.Sum != 8.5 {
		t.Errorf("window = %+v, want count 10, failures 2, sum 8.5", cur)
	}
	if cur.Min != 0.1 || cur.Max != 1 {
		t.Errorf("min/max = %g/%g, want 0.1/1", cur.Min, cur.Max)
	}
}

func TestSeriesSetReportJSON(t *testing.T) {
	clk := newFakeClock()
	ss := NewSeriesSet(time.Minute, 4)
	ss.SetClock(clk.Now)

	ss.Series(Labels{"characteristic": "Completeness", "context": "reviewer"}).Observe(0.9)
	clk.Advance(time.Minute)
	ss.Series(Labels{"characteristic": "Completeness", "context": "reviewer"}).ObserveOutcome(0.7, true)
	ss.Series(Labels{"characteristic": "Precision", "context": "chair"}).Observe(1)

	rep := ss.Report("dq_score", 0)
	if rep.Name != "dq_score" || len(rep.Series) != 2 {
		t.Fatalf("report = %+v, want 2 series named dq_score", rep)
	}
	// Entries are sorted by canonical label key: Completeness first.
	first := rep.Series[0]
	if first.Labels["characteristic"] != "Completeness" {
		t.Errorf("first series = %v, want Completeness", first.Labels)
	}
	if first.Current == nil || first.Current.Failures != 1 {
		t.Errorf("current = %+v, want 1 failure", first.Current)
	}
	if first.Delta == nil || math.Abs(*first.Delta-(-0.2)) > 1e-9 {
		t.Errorf("delta = %v, want -0.2", first.Delta)
	}
	if first.EWMA == nil {
		t.Error("EWMA missing")
	}

	// The wire form must round-trip through JSON (no NaN poisoning).
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back SeriesReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Series) != 2 || back.Series[0].Labels["context"] != "reviewer" {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestSeriesSetWritePrometheus(t *testing.T) {
	clk := newFakeClock()
	ss := NewSeriesSet(time.Minute, 4)
	ss.SetClock(clk.Now)
	labels := Labels{"characteristic": "Completeness", "context": "reviewer"}

	ss.Series(labels).ObserveOutcome(0.5, true)
	clk.Advance(time.Minute)
	ss.Series(labels).Observe(1)

	text := scrapeSet(t, ss)

	for _, want := range []string{
		`dq_score{characteristic="Completeness",context="reviewer",window="current"} 1`,
		`dq_score{characteristic="Completeness",context="reviewer",window="previous"} 0.5`,
		`dq_check_failures{characteristic="Completeness",context="reviewer",window="current"} 0`,
		`dq_check_failures{characteristic="Completeness",context="reviewer",window="previous"} 1`,
		`dq_score_trend{characteristic="Completeness",context="reviewer",stat="delta"} 0.5`,
		`dq_score_trend{characteristic="Completeness",context="reviewer",stat="ewma"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// After a silent advance the stale "current" must become NaN, not keep
	// the last value.
	clk.Advance(time.Minute)
	text = scrapeSet(t, ss)
	if !strings.Contains(text, `dq_score{characteristic="Completeness",context="reviewer",window="current"} NaN`) {
		t.Errorf("stale current window not NaN:\n%s", text)
	}
	if !strings.Contains(text, `dq_score{characteristic="Completeness",context="reviewer",window="previous"} 1`) {
		t.Errorf("previous window should hold the last populated mean:\n%s", text)
	}
}

// scrapeSet renders ss the way a /metrics handler does.
func scrapeSet(t *testing.T, ss *SeriesSet) string {
	t.Helper()
	var b strings.Builder
	if err := ss.WritePrometheus(&b, "dq_score", "score", "dq_check_failures", "failures"); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSeriesConcurrentWriters hammers one set from many goroutines while a
// reader snapshots; run under -race this verifies the locking story.
func TestSeriesConcurrentWriters(t *testing.T) {
	ss := NewSeriesSet(time.Minute, 4)
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				ss.Report("x", 0)
				for _, e := range ss.entries() {
					e.s.Snapshot()
					e.s.Delta()
					e.s.EWMA(0)
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			labels := Labels{"shard": []string{"a", "b"}[g%2]}
			for i := 0; i < perG; i++ {
				ss.Series(labels).ObserveOutcome(0.5, i%3 == 0)
			}
		}(g)
	}
	wg.Wait()
	close(stop)

	var total uint64
	for _, e := range ss.entries() {
		if cur, ok := e.s.Current(); ok {
			total += cur.Count
		}
	}
	if total != goroutines*perG {
		t.Errorf("observations lost: %d, want %d", total, goroutines*perG)
	}
}

func TestSeriesDefaults(t *testing.T) {
	s := NewSeries(0, 0)
	if s.Interval() != time.Minute {
		t.Errorf("default interval = %v, want 1m", s.Interval())
	}
	if len(s.ring) != 2 {
		t.Errorf("default ring size = %d, want 2", len(s.ring))
	}
}
