package dqruntime

import (
	"io"
	"sync"

	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// Check-level attribution: an Enforcer with an attached CheckObserver
// reports every check execution — outcome, score and latency, tagged with
// an optional context label such as the submitting user's role — and
// SeriesObserver routes those into the windowed obs.Series layer that
// /metrics and /debug/quality expose and, given the registry a server
// serves, into per-check counters and latency histograms.

// CheckObservation is one check execution as seen by an observer.
type CheckObservation struct {
	// Check is the check's name (e.g. "check_precision"); Characteristic
	// the ISO/IEC 25012 characteristic it measures.
	Check          string
	Characteristic iso25012.Characteristic
	// Context is the caller-supplied attribution label (user role,
	// workflow stage, dataset name); "" when the caller passed none.
	Context string
	// Score is the measured level in [0, 1]; Passed the outcome.
	Score  float64
	Passed bool
	// Seconds is the check's execution latency.
	Seconds float64
}

// CheckObserver receives one call per executed check. Implementations
// must be safe for concurrent use: a served application validates from
// many request goroutines.
type CheckObserver interface {
	ObserveCheck(CheckObservation)
}

// SeriesObserver is the stock CheckObserver: it feeds per-characteristic
// score series (labels characteristic + context) in a SeriesSet and, when
// given a registry, per check a dq_checks_total{characteristic,check,result}
// counter pair and a dq_check_seconds latency histogram. Series and
// per-check handles are cached after first resolution, so the
// steady-state cost per check is one map read under RLock plus the
// updates.
type SeriesObserver struct {
	scores *obs.SeriesSet
	reg    *obs.Registry

	mu     sync.RWMutex
	series map[[2]string]*obs.Series   // {characteristic, context}
	checks map[[2]string]*checkHandles // {check, characteristic}
}

// checkHandles are one check's registry metrics.
type checkHandles struct {
	pass, fail *obs.Counter
	seconds    *obs.Histogram
}

// checkBuckets bound dq_check_seconds: single checks run in the
// micro-to-millisecond range.
var checkBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1,
}

// NewSeriesObserver builds an observer feeding scores; reg may be nil to
// skip the per-check counters and latency histograms.
func NewSeriesObserver(scores *obs.SeriesSet, reg *obs.Registry) *SeriesObserver {
	return &SeriesObserver{
		scores: scores,
		reg:    reg,
		series: make(map[[2]string]*obs.Series),
		checks: make(map[[2]string]*checkHandles),
	}
}

// ObserveCheck implements CheckObserver.
func (o *SeriesObserver) ObserveCheck(co CheckObservation) {
	skey := [2]string{string(co.Characteristic), co.Context}
	ckey := [2]string{co.Check, string(co.Characteristic)}
	o.mu.RLock()
	s := o.series[skey]
	h := o.checks[ckey]
	o.mu.RUnlock()
	if s == nil || (h == nil && o.reg != nil) {
		o.mu.Lock()
		if s = o.series[skey]; s == nil {
			s = o.scores.Series(obs.Labels{
				"characteristic": string(co.Characteristic),
				"context":        co.Context,
			})
			o.series[skey] = s
		}
		if h = o.checks[ckey]; h == nil && o.reg != nil {
			h = o.newCheckHandles(co.Check, co.Characteristic)
			o.checks[ckey] = h
		}
		o.mu.Unlock()
	}
	s.ObserveOutcome(co.Score, !co.Passed)
	if h != nil {
		if co.Passed {
			h.pass.Inc()
		} else {
			h.fail.Inc()
		}
		h.seconds.Observe(co.Seconds)
	}
}

// newCheckHandles resolves one check's metrics in o.reg. Both outcome
// counters are created together, so a check's fail series reads 0 from its
// first execution on.
func (o *SeriesObserver) newCheckHandles(check string, ch iso25012.Characteristic) *checkHandles {
	const checksHelp = "DQ check executions, by ISO/IEC 25012 characteristic, check and result"
	counter := func(result string) *obs.Counter {
		return o.reg.Counter("dq_checks_total", checksHelp, obs.Labels{
			"characteristic": string(ch),
			"check":          check,
			"result":         result,
		})
	}
	return &checkHandles{
		pass: counter("pass"),
		fail: counter("fail"),
		seconds: o.reg.Histogram("dq_check_seconds",
			"DQ check execution latency in seconds, by check",
			checkBuckets, obs.Labels{"check": check}),
	}
}

// Scores exposes the underlying score series set (for /metrics and debug
// endpoints).
func (o *SeriesObserver) Scores() *obs.SeriesSet { return o.scores }

// WriteScores renders set, a set of check scores labeled {characteristic,
// context}, as the dq_score, dq_check_failures and dq_score_trend gauge
// families of a /metrics scrape.
func WriteScores(w io.Writer, set *obs.SeriesSet) error {
	return set.WritePrometheus(w,
		"dq_score", "Windowed mean DQ check score, by characteristic, context and window",
		"dq_check_failures", "Windowed DQ check failure count, by characteristic, context and window")
}
