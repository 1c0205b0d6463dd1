package dqbatch_test

import (
	"context"
	"math"
	"testing"
	"time"

	. "github.com/modeldriven/dqwebre/internal/dqbatch"
	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/iso25012"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// TestRunAttributesQualitySeries checks the bridge from batch aggregation
// into the windowed series layer: one Merge per characteristic after the
// shard merge, carrying exact counts and the un-rounded score sum.
func TestRunAttributesQualitySeries(t *testing.T) {
	v := buildValidator(t)
	var recs []dqruntime.Record
	for i := 0; i < 500; i++ {
		if i%10 == 0 {
			recs = append(recs, badRecord())
		} else {
			recs = append(recs, goodRecord())
		}
	}
	quality := obs.NewSeriesSet(time.Minute, 4)
	res, err := Run(context.Background(), v, NewColumnSource(recs), Options{
		Workers: 4, ChunkSize: 16, Quality: quality, Context: "nightly", Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	rep := quality.Report("dq_score", 0)
	if len(rep.Series) != len(res.Characteristics) {
		t.Fatalf("series = %d, want one per characteristic (%d)",
			len(rep.Series), len(res.Characteristics))
	}
	byChar := map[string]*obs.SeriesSnapshot{}
	for i := range rep.Series {
		s := &rep.Series[i]
		if s.Labels["context"] != "nightly" {
			t.Errorf("context label = %q, want nightly", s.Labels["context"])
		}
		byChar[s.Labels["characteristic"]] = s
	}
	for _, cs := range res.Characteristics {
		s := byChar[string(cs.Characteristic)]
		if s == nil || s.Current == nil {
			t.Fatalf("no series window for %s", cs.Characteristic)
		}
		w := s.Current
		if w.Count != uint64(cs.Checks) || w.Failures != uint64(cs.Checks-cs.Passed) {
			t.Errorf("%s window count/failures = %d/%d, want %d/%d",
				cs.Characteristic, w.Count, w.Failures, cs.Checks, cs.Checks-cs.Passed)
		}
		if w.Min != cs.MinScore || w.Max != cs.MaxScore {
			t.Errorf("%s window min/max = %g/%g, want %g/%g",
				cs.Characteristic, w.Min, w.Max, cs.MinScore, cs.MaxScore)
		}
		// The window mean must come from the exact sum, agreeing with the
		// (rounded) reported mean to its rounding precision.
		if math.Abs(w.Mean-cs.MeanScore) > 1e-4 {
			t.Errorf("%s window mean = %g, reported mean %g", cs.Characteristic, w.Mean, cs.MeanScore)
		}
	}

	// Exact failure math on the known mix: 50 bad records fail one of the
	// two precision checks each.
	prec := byChar[string(iso25012.Precision)]
	if prec.Current.Count != 1000 || prec.Current.Failures != 50 {
		t.Errorf("precision window = %+v, want 1000 checks 50 failures", prec.Current)
	}

	// A second run in the same window accumulates rather than replaces.
	if _, err := Run(context.Background(), v, NewColumnSource(recs[:100]), Options{
		Workers: 2, Quality: quality, Context: "nightly", Registry: obs.NewRegistry(),
	}); err != nil {
		t.Fatal(err)
	}
	rep = quality.Report("dq_score", 0)
	for i := range rep.Series {
		if rep.Series[i].Labels["characteristic"] == string(iso25012.Precision) {
			if got := rep.Series[i].Current.Count; got != 1200 {
				t.Errorf("precision checks after second run = %d, want 1200", got)
			}
		}
	}
}

// TestRunQualityContextDefaults pins the fallback context label.
func TestRunQualityContextDefaults(t *testing.T) {
	v := buildValidator(t)
	quality := obs.NewSeriesSet(time.Minute, 4)
	if _, err := Run(context.Background(), v, NewColumnSource([]dqruntime.Record{goodRecord()}), Options{
		Quality: quality, Registry: obs.NewRegistry(),
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range quality.Report("dq_score", 0).Series {
		if s.Labels["context"] != "batch" {
			t.Errorf("default context = %q, want batch", s.Labels["context"])
		}
	}
}

// TestRunWithoutQualityUnchanged guards the uninstrumented path: no
// Quality set, no series anywhere, identical results.
func TestRunWithoutQualityUnchanged(t *testing.T) {
	v := buildValidator(t)
	recs := []dqruntime.Record{goodRecord(), badRecord()}
	res, err := Run(context.Background(), v, NewColumnSource(recs), Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 || res.Passed != 1 || res.Failed != 1 {
		t.Fatalf("results changed: %+v", res)
	}
}
