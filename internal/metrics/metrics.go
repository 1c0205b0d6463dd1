// Package metrics is the monitoring layer of the ISO/IEC 15939
// measurement information model that the paper's research line builds on
// (Caballero et al. 2007; Batini et al. 2007): a catalog of measures bound
// to ISO/IEC 25012 characteristics, and minimum-mean thresholds judged on
// the windowed DQ score series (obs.SeriesSet) the runtime validator
// feeds, so the DQ level of the data flowing through the system is
// observable over time — the "continuous process of living" the paper
// contrasts with one-shot data cleansing.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// Scale classifies a measure's scale per ISO/IEC 15939.
type Scale int

// Measurement scales.
const (
	// Ratio scales have a true zero (all [0,1] DQ scores are ratio).
	Ratio Scale = iota
	// Interval scales have meaningful differences but arbitrary zero.
	Interval
	// Ordinal scales are ordered categories.
	Ordinal
	// Nominal scales are unordered categories.
	Nominal
)

// String renders the scale name.
func (s Scale) String() string {
	switch s {
	case Ratio:
		return "ratio"
	case Interval:
		return "interval"
	case Ordinal:
		return "ordinal"
	case Nominal:
		return "nominal"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Measure is a named way of quantifying one DQ characteristic.
type Measure struct {
	// Name identifies the measure, e.g. "review completeness ratio".
	Name string
	// Characteristic is the ISO/IEC 25012 characteristic measured.
	Characteristic iso25012.Characteristic
	// Scale classifies the measure.
	Scale Scale
	// Unit describes the value unit, e.g. "fraction" or "violations/day".
	Unit string
	// Doc describes the measurement method.
	Doc string
}

// Threshold declares the minimum acceptable aggregate level of a measure.
type Threshold struct {
	// Measure is the constrained measure's name.
	Measure string
	// MinMean is the lowest acceptable mean check score (see Violations).
	MinMean float64
}

// Violation reports a threshold not met.
type Violation struct {
	// Threshold violated.
	Threshold Threshold
	// Observed folds the characteristic's last hour across contexts.
	Observed obs.Window
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("measure %q: mean %.3f below threshold %.3f (n=%d)",
		v.Threshold.Measure, v.Observed.Mean, v.Threshold.MinMean, v.Observed.Count)
}

// Collector is the measure catalog and threshold monitor over one DQ score
// series set (one series per characteristic × context); every measure
// reads its characteristic's series. It is safe for concurrent use.
type Collector struct {
	observer *dqruntime.SeriesObserver

	mu         sync.RWMutex
	measures   map[string]Measure
	thresholds []Threshold
}

// NewCollector creates an empty collector over a new score series set of
// one-minute windows, an hour retained.
func NewCollector() *Collector {
	return &Collector{
		observer: dqruntime.NewSeriesObserver(obs.NewSeriesSet(time.Minute, 60), nil),
		measures: make(map[string]Measure),
	}
}

// Scores returns the series set the collector judges, for an enforcer's
// dqruntime.SeriesObserver, /debug/quality and the dq_score export.
func (c *Collector) Scores() *obs.SeriesSet { return c.observer.Scores() }

// Register declares a measure. Re-registering the same name with different
// content is an error.
func (c *Collector) Register(m Measure) error {
	if m.Name == "" {
		return fmt.Errorf("metrics: measure needs a name")
	}
	if !iso25012.IsValid(string(m.Characteristic)) {
		return fmt.Errorf("metrics: measure %q has unknown characteristic %q", m.Name, m.Characteristic)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.measures[m.Name]; ok {
		if existing != m {
			return fmt.Errorf("metrics: measure %q already registered with different definition", m.Name)
		}
		return nil
	}
	c.measures[m.Name] = m
	return nil
}

// Measures returns the registered measures sorted by name.
func (c *Collector) Measures() []Measure {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Measure, 0, len(c.measures))
	for _, m := range c.measures {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// fold sums each characteristic's windows of the last hour across
// contexts; characteristics with no observations in it are absent.
func (c *Collector) fold() map[iso25012.Characteristic]obs.Window {
	out := map[iso25012.Characteristic]obs.Window{}
	for _, s := range c.Scores().Report("", 0).Series {
		ch := iso25012.Characteristic(s.Labels["characteristic"])
		agg := out[ch]
		for _, w := range s.Windows {
			if w.Count == 0 {
				continue
			}
			if agg.Count == 0 || w.Min < agg.Min {
				agg.Min = w.Min
			}
			if agg.Count == 0 || w.Max > agg.Max {
				agg.Max = w.Max
			}
			agg.Count += w.Count
			agg.Failures += w.Failures
			agg.Sum += w.Sum
		}
		if agg.Count > 0 {
			agg.Mean = agg.Sum / float64(agg.Count)
			out[ch] = agg
		}
	}
	return out
}

// AddThreshold installs a minimum-mean threshold for a measure.
func (c *Collector) AddThreshold(t Threshold) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.measures[t.Measure]; !ok {
		return fmt.Errorf("metrics: threshold on unregistered measure %q", t.Measure)
	}
	c.thresholds = append(c.thresholds, t)
	return nil
}

// Violations judges each threshold on the mean check score of its
// measure's characteristic over the last hour, across contexts. A measure
// with no observations in that hour does not violate.
func (c *Collector) Violations() []Violation {
	folded := c.fold()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Violation
	for _, t := range c.thresholds {
		if w, ok := folded[c.measures[t.Measure].Characteristic]; ok && w.Mean < t.MinMean {
			out = append(out, Violation{Threshold: t, Observed: w})
		}
	}
	return out
}

// MeasureNameFor names the standard per-characteristic score measure that
// RegisterCharacteristics registers.
func MeasureNameFor(ch iso25012.Characteristic) string {
	return "dq/" + string(ch)
}

// RegisterCharacteristics registers the standard [0,1] score measure for
// each given characteristic.
func (c *Collector) RegisterCharacteristics(chs ...iso25012.Characteristic) error {
	for _, ch := range chs {
		err := c.Register(Measure{
			Name:           MeasureNameFor(ch),
			Characteristic: ch,
			Scale:          Ratio,
			Unit:           "fraction",
			Doc:            "mean " + string(ch) + " check score from the runtime validator",
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RecordReport folds a report validated without an attached observer into
// the score series through a dqruntime.SeriesObserver: one observation per
// check result, labeled {characteristic, context}. Unregistered
// characteristics are registered on first use.
func (c *Collector) RecordReport(rep *dqruntime.Report, context string) error {
	for _, res := range rep.Results {
		if err := c.RegisterCharacteristics(res.Characteristic); err != nil {
			return err
		}
		c.observer.ObserveCheck(dqruntime.CheckObservation{
			Check: res.Check, Characteristic: res.Characteristic, Context: context,
			Score: res.Score, Passed: res.Passed,
		})
	}
	return nil
}

// Export sets dq_threshold_violations in reg to the number of Violations.
// Servers call it right before rendering /metrics, so the gauge is never
// older than the scrape.
func (c *Collector) Export(reg *obs.Registry) {
	reg.Gauge("dq_threshold_violations",
		"DQ measures whose mean check score over the last hour, across contexts, is below their monitoring threshold", nil).
		Set(float64(len(c.Violations())))
}

// Snapshot renders a sorted, human-readable view of every measure's
// aggregate over the last hour, for diagnostics endpoints. A measure with
// no observations in that hour shows n=0 and no mean.
func (c *Collector) Snapshot() []string {
	folded := c.fold()
	var out []string
	for _, m := range c.Measures() {
		w := folded[m.Characteristic]
		line := fmt.Sprintf("%-28s [%s/%s] n=%d", m.Name, m.Characteristic, m.Scale, w.Count)
		if w.Count > 0 {
			line += fmt.Sprintf(" mean=%.3f min=%.3f max=%.3f", w.Mean, w.Min, w.Max)
		}
		out = append(out, line)
	}
	return out
}
