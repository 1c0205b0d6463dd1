package obs

import (
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// This file is the time dimension of the metrics layer: where Counter and
// Gauge answer "what is the level now?", a Series answers "how has it
// moved?". Each Series keeps a fixed-interval ring of aggregated windows
// (count, failure count, sum, min, max) and derives trends from them
// (Delta between the current and previous window, EWMA across the ring),
// so a dashboard can tell a degrading quality score from a noisy one
// without a time-series database. A SeriesSet groups Series by label set
// the way a metric family groups Counters, and renders its windows and
// trends as Prometheus gauge families at scrape time.

// Window is the aggregated view of one fixed-length time window of a
// Series, exported for snapshots and JSON.
type Window struct {
	// Start is the window's inclusive start time.
	Start time.Time `json:"start"`
	// Count is the number of observations; Failures how many of them were
	// marked failed.
	Count    uint64 `json:"count"`
	Failures uint64 `json:"failures"`
	// Sum, Min and Max aggregate the observed values.
	Sum float64 `json:"sum"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Mean is Sum/Count, 0 for an empty window (kept explicit so the JSON
	// form needs no client-side arithmetic).
	Mean float64 `json:"mean"`
}

// bucket is one ring slot. idx is the window's ordinal (start time divided
// by the interval); -1 marks a slot that has never held a window.
type bucket struct {
	idx             int64
	count, failures uint64
	sum, min, max   float64
}

// Series is a fixed-interval windowed aggregate of one measured value,
// safe for concurrent writers and snapshot readers. Observations land in
// the window containing the current time; older windows stay frozen in
// the ring until capacity evicts them. Non-finite observations are
// dropped — one NaN must not poison a whole window.
type Series struct {
	interval time.Duration
	clock    func() time.Time

	mu   sync.Mutex
	ring []bucket
	head int // position of the newest window in ring
}

// NewSeries creates a series of `windows` ring slots, each `interval`
// long. interval <= 0 defaults to one minute; windows < 2 defaults to 2
// (Delta needs a current and a previous window to compare).
func NewSeries(interval time.Duration, windows int) *Series {
	if interval <= 0 {
		interval = time.Minute
	}
	if windows < 2 {
		windows = 2
	}
	s := &Series{interval: interval, clock: time.Now, ring: make([]bucket, windows)}
	for i := range s.ring {
		s.ring[i].idx = -1
	}
	return s
}

// Interval returns the window length.
func (s *Series) Interval() time.Duration { return s.interval }

// SetClock injects a deterministic clock for tests; nil restores time.Now.
func (s *Series) SetClock(clock func() time.Time) {
	if clock == nil {
		clock = time.Now
	}
	s.mu.Lock()
	s.clock = clock
	s.mu.Unlock()
}

// Observe records one successful observation of v.
func (s *Series) Observe(v float64) { s.add(1, 0, v, v, v) }

// ObserveOutcome records one observation of v, counting it as a failure
// when failed is true.
func (s *Series) ObserveOutcome(v float64, failed bool) {
	if failed {
		s.add(1, 1, v, v, v)
		return
	}
	s.add(1, 0, v, v, v)
}

// Merge folds a pre-aggregated block of observations into the current
// window — the bulk path for batch shards that aggregated locally and
// attribute their totals in one call instead of millions.
func (s *Series) Merge(count, failures uint64, sum, min, max float64) {
	if count == 0 {
		return
	}
	s.add(count, failures, sum, min, max)
}

func (s *Series) add(count, failures uint64, sum, min, max float64) {
	if math.IsNaN(sum) || math.IsInf(sum, 0) ||
		math.IsNaN(min) || math.IsInf(min, 0) ||
		math.IsNaN(max) || math.IsInf(max, 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.advance()
	first := b.count == 0
	b.count += count
	b.failures += failures
	b.sum += sum
	if first || min < b.min {
		b.min = min
	}
	if first || max > b.max {
		b.max = max
	}
}

// advance moves the ring head to the window containing now, zeroing the
// windows it steps over, and returns the current bucket. Callers hold
// s.mu. A clock that steps backwards folds into the newest window rather
// than resurrecting a frozen one.
func (s *Series) advance() *bucket {
	idx := s.clock().UnixNano() / int64(s.interval)
	cur := &s.ring[s.head]
	if cur.idx >= idx {
		return cur
	}
	if cur.idx < 0 {
		cur.idx = idx
		return cur
	}
	steps := idx - cur.idx
	if steps >= int64(len(s.ring)) {
		// The gap swallowed the whole ring; start over.
		for i := range s.ring {
			s.ring[i] = bucket{idx: -1}
		}
		s.head = 0
		s.ring[0].idx = idx
		return &s.ring[0]
	}
	last := cur.idx
	for i := int64(1); i <= steps; i++ {
		s.head = (s.head + 1) % len(s.ring)
		s.ring[s.head] = bucket{idx: last + i}
	}
	return &s.ring[s.head]
}

// window converts a bucket to its exported form.
func (s *Series) window(b *bucket) Window {
	w := Window{
		Start:    time.Unix(0, b.idx*int64(s.interval)),
		Count:    b.count,
		Failures: b.failures,
		Sum:      b.sum,
		Min:      b.min,
		Max:      b.max,
	}
	if b.count > 0 {
		w.Mean = b.sum / float64(b.count)
	}
	return w
}

// Snapshot returns the retained windows that lie within the ring's span
// of now (the last len(ring) intervals, the current one included), oldest
// first, including windows the series advanced through without
// observations (count 0). Windows older than that span are left out even
// before a write advances the ring past them. It is safe under concurrent
// writers: the returned slice is a copy.
func (s *Series) Snapshot() []Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ring)
	stale := s.clock().UnixNano()/int64(s.interval) - int64(n)
	out := make([]Window, 0, n)
	for i := 0; i < n; i++ {
		b := &s.ring[(s.head+1+i)%n]
		if b.idx < 0 || b.idx <= stale {
			continue
		}
		out = append(out, s.window(b))
	}
	return out
}

// at returns the window with the given ordinal; ok is false when the ring
// no longer (or does not yet) hold it. Callers hold s.mu.
func (s *Series) at(idx int64) (Window, bool) {
	for i := range s.ring {
		if s.ring[i].idx == idx {
			return s.window(&s.ring[i]), true
		}
	}
	return Window{}, false
}

// Current returns the window containing now; ok is false when nothing has
// been observed (or advanced through) in it yet.
func (s *Series) Current() (Window, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at(s.clock().UnixNano() / int64(s.interval))
}

// Previous returns the window immediately before the current one.
func (s *Series) Previous() (Window, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at(s.clock().UnixNano()/int64(s.interval) - 1)
}

// Delta returns the change of the window mean from the previous window to
// the current one — the "is it degrading right now?" number. ok is false
// unless both windows hold observations.
func (s *Series) Delta() (delta float64, ok bool) {
	cur, okC := s.Current()
	prev, okP := s.Previous()
	if !okC || !okP || cur.Count == 0 || prev.Count == 0 {
		return 0, false
	}
	return cur.Mean - prev.Mean, true
}

// DefaultEWMAAlpha is the smoothing factor used when EWMA is called with
// an out-of-range alpha.
const DefaultEWMAAlpha = 0.3

// EWMA returns the exponentially weighted moving average of the window
// means, oldest window first, skipping empty windows — the smoothed trend
// that damps single-window noise. alpha outside (0, 1] defaults to
// DefaultEWMAAlpha. ok is false when no window holds observations.
func (s *Series) EWMA(alpha float64) (ewma float64, ok bool) {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	for _, w := range s.Snapshot() {
		if w.Count == 0 {
			continue
		}
		if !ok {
			ewma, ok = w.Mean, true
			continue
		}
		ewma = alpha*w.Mean + (1-alpha)*ewma
	}
	return ewma, ok
}

// SeriesSnapshot is the exported form of one labeled series with its
// derived trends, the unit of the /debug/quality payload.
type SeriesSnapshot struct {
	// Labels identify the series within its set.
	Labels Labels `json:"labels,omitempty"`
	// IntervalSeconds is the window length.
	IntervalSeconds float64 `json:"interval_seconds"`
	// Windows are the retained windows, oldest first.
	Windows []Window `json:"windows"`
	// Current is the window containing now, when it holds observations.
	Current *Window `json:"current,omitempty"`
	// Delta is mean(current) − mean(previous), when both windows have data.
	Delta *float64 `json:"delta,omitempty"`
	// EWMA is the smoothed trend across the retained windows.
	EWMA *float64 `json:"ewma,omitempty"`
}

// SeriesReport is the wire form of a whole SeriesSet: what a debug
// endpoint serves and `dqwebre watch` consumes.
type SeriesReport struct {
	// Name is the logical family name, e.g. "dq_score".
	Name string `json:"name"`
	// Series holds one snapshot per label set, sorted by label key.
	Series []SeriesSnapshot `json:"series"`
}

// seriesEntry pairs a Series with its label identity inside a set.
type seriesEntry struct {
	labels Labels
	key    string
	s      *Series
}

// SeriesSet groups Series by label set the way a metric family groups
// counters: one set is one logical windowed family (say, DQ check scores
// per characteristic × context). The set is the only store of its
// windows: WritePrometheus renders them for /metrics and Report for
// /debug/quality, both at read time. Safe for concurrent use; series are
// created on first touch and live for the life of the set.
type SeriesSet struct {
	interval time.Duration
	windows  int
	clock    func() time.Time

	mu     sync.RWMutex
	series map[string]*seriesEntry
}

// NewSeriesSet creates an empty set whose member series use the given
// window interval and ring capacity (same defaults as NewSeries).
func NewSeriesSet(interval time.Duration, windows int) *SeriesSet {
	return &SeriesSet{
		interval: interval,
		windows:  windows,
		clock:    time.Now,
		series:   make(map[string]*seriesEntry),
	}
}

// SetClock injects a deterministic clock into the set and every present
// and future member series; nil restores time.Now.
func (ss *SeriesSet) SetClock(clock func() time.Time) {
	if clock == nil {
		clock = time.Now
	}
	ss.mu.Lock()
	ss.clock = clock
	entries := make([]*seriesEntry, 0, len(ss.series))
	for _, e := range ss.series {
		entries = append(entries, e)
	}
	ss.mu.Unlock()
	for _, e := range entries {
		e.s.SetClock(clock)
	}
}

// Series returns the member series for the given labels, creating it on
// first use.
func (ss *SeriesSet) Series(labels Labels) *Series {
	key := labels.canonical()
	ss.mu.RLock()
	e, ok := ss.series[key]
	ss.mu.RUnlock()
	if ok {
		return e.s
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if e, ok := ss.series[key]; ok {
		return e.s
	}
	s := NewSeries(ss.interval, ss.windows)
	s.SetClock(ss.clock)
	ss.series[key] = &seriesEntry{labels: labels.clone(), key: key, s: s}
	return s
}

// entries returns the member entries sorted by label key.
func (ss *SeriesSet) entries() []*seriesEntry {
	ss.mu.RLock()
	out := make([]*seriesEntry, 0, len(ss.series))
	for _, e := range ss.series {
		out = append(out, e)
	}
	ss.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Report snapshots every member series with its trends into the wire
// form. alpha parameterizes the EWMA (see Series.EWMA).
func (ss *SeriesSet) Report(name string, alpha float64) SeriesReport {
	rep := SeriesReport{Name: name}
	for _, e := range ss.entries() {
		snap := SeriesSnapshot{
			Labels:          e.labels.clone(),
			IntervalSeconds: e.s.Interval().Seconds(),
			Windows:         e.s.Snapshot(),
		}
		if cur, ok := e.s.Current(); ok && cur.Count > 0 {
			snap.Current = &cur
		}
		if d, ok := e.s.Delta(); ok {
			snap.Delta = &d
		}
		if m, ok := e.s.EWMA(alpha); ok {
			snap.EWMA = &m
		}
		rep.Series = append(rep.Series, snap)
	}
	return rep
}

// WritePrometheus renders the set in the Prometheus text exposition as
// three gauge families: for every member series
//
//	<name>{<labels>,window="current"|"previous"}  — window mean (NaN when
//	                                                the window is empty)
//	<failName>{<labels>,window=...}               — window failure count
//	<name>_trend{<labels>,stat="delta"|"ewma"}    — trend numbers (NaN
//	                                                when underived)
//
// The gauges live in a registry local to the call, so every scrape reads
// the windows as they are now and no registry outlives it holding a copy.
func (ss *SeriesSet) WritePrometheus(w io.Writer, name, help, failName, failHelp string) error {
	reg := NewRegistry()
	for _, e := range ss.entries() {
		cur, okCur := e.s.Current()
		prev, okPrev := e.s.Previous()
		exportWindow(reg, name, help, failName, failHelp, e.labels, "current", cur, okCur)
		exportWindow(reg, name, help, failName, failHelp, e.labels, "previous", prev, okPrev)

		trendHelp := help + " (trend: delta = current minus previous window mean, ewma = smoothed window mean)"
		delta, okD := e.s.Delta()
		if !okD {
			delta = math.NaN()
		}
		reg.Gauge(name+"_trend", trendHelp, withLabel(e.labels, "stat", "delta")).Set(delta)
		ewma, okE := e.s.EWMA(0)
		if !okE {
			ewma = math.NaN()
		}
		reg.Gauge(name+"_trend", trendHelp, withLabel(e.labels, "stat", "ewma")).Set(ewma)
	}
	return reg.WritePrometheus(w)
}

// exportWindow sets the mean and failure gauges for one window position.
func exportWindow(reg *Registry, name, help, failName, failHelp string, labels Labels, window string, w Window, ok bool) {
	mean, fails := math.NaN(), 0.0
	if ok && w.Count > 0 {
		mean = w.Mean
	}
	if ok {
		fails = float64(w.Failures)
	}
	reg.Gauge(name, help, withLabel(labels, "window", window)).Set(mean)
	reg.Gauge(failName, failHelp, withLabel(labels, "window", window)).Set(fails)
}

// withLabel returns labels plus one extra pair, never mutating the input.
func withLabel(labels Labels, k, v string) Labels {
	out := make(Labels, len(labels)+1)
	for lk, lv := range labels {
		out[lk] = lv
	}
	out[k] = v
	return out
}
